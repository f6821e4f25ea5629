import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plfkit.events import (
    KINDS,
    EventParseError,
    EventRecord,
    OrderingKey,
    StreamOrderError,
    event_to_obj,
    is_valid_address,
    iter_events,
    parse_event_line,
    parse_event_obj,
    read_events,
    serialize_event,
    write_events,
)
from plfkit.fixedpoint import (
    _DECIMAL,
    _MAX_WHOLE_DIGITS,
    FRACTIONAL_DIGITS,
    MANTISSA_BOUND,
    SCALE,
    Dec,
    DecOverflowError,
    DecParseError,
)
from streams import ACCT_A, ACCT_B, hand_fixture, make_event


def obj(**overrides):
    base = {
        "block": 3,
        "tx_index": 0,
        "log_index": 1,
        "kind": "Mint",
        "market": "DAI",
        "account": ACCT_A,
        "amount_underlying": "10",
        "amount_ctokens": "500",
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


class TestAddress:
    def test_valid(self):
        assert is_valid_address(ACCT_A)

    @pytest.mark.parametrize(
        "bad",
        ["0x" + "AA" * 20, "0x" + "aa" * 19, "aa" * 21, 42, None, "0x" + "gg" * 20],
    )
    def test_invalid(self, bad):
        assert not is_valid_address(bad)


class TestOrderingKey:
    def test_total_order(self):
        assert OrderingKey(1, 0, 0) < OrderingKey(1, 0, 1) < OrderingKey(1, 1, 0)
        assert OrderingKey(1, 9, 9) < OrderingKey(2, 0, 0)
        # A key is its plain (block, tx_index, log_index) tuple.
        assert OrderingKey(1, 2, 3) == (1, 2, 3)
        assert (1, 2, 2) < OrderingKey(1, 2, 3) < (1, 3, 0)
        assert OrderingKey(1, 2, 3) <= (1, 2, 3) <= OrderingKey(1, 2, 3)


class TestParsing:
    def test_valid_mint(self):
        event = parse_event_obj(obj())
        assert event.key == OrderingKey(3, 0, 1)
        assert event.kind == "Mint"
        assert event.market == "DAI"
        assert event.payload["amount_underlying"] == Dec(10)
        assert event.payload["account"] == ACCT_A

    def test_all_kinds_covered(self):
        assert len(KINDS) == 12

    def test_invalid_json(self):
        with pytest.raises(EventParseError, match="invalid JSON"):
            parse_event_line("{not json", line_number=7)

    def test_error_carries_location(self):
        with pytest.raises(EventParseError) as excinfo:
            parse_event_line(json.dumps(obj(amount_underlying="-1")), line_number=4)
        assert excinfo.value.line_number == 4
        assert excinfo.value.field == "amount_underlying"
        assert "line 4" in str(excinfo.value)

    def test_missing_kind(self):
        with pytest.raises(EventParseError, match="kind"):
            parse_event_obj(obj(kind=None))

    def test_unknown_kind(self):
        with pytest.raises(EventParseError, match="unknown event kind"):
            parse_event_obj(obj(kind="Transfer"))

    def test_missing_ordering_field(self):
        with pytest.raises(EventParseError, match="ordering"):
            parse_event_obj(obj(block=None))

    @pytest.mark.parametrize("block", [-1, True, "3", 1.5])
    def test_bad_ordering_value(self, block):
        with pytest.raises(EventParseError, match="non-negative integer"):
            parse_event_obj(obj(block=block))

    def test_unexpected_field_rejected(self):
        with pytest.raises(EventParseError, match="unexpected field"):
            parse_event_obj(obj(extra="x"))

    def test_missing_market_field(self):
        with pytest.raises(EventParseError, match="market"):
            parse_event_obj(obj(market=None))

    def test_missing_payload_field(self):
        with pytest.raises(EventParseError, match="amount_ctokens"):
            parse_event_obj(obj(amount_ctokens=None))

    def test_numeric_amount_rejected(self):
        # Amounts travel as strings; raw JSON numbers are a schema error.
        with pytest.raises(EventParseError, match="decimal string"):
            parse_event_obj(obj(amount_underlying=10))

    def test_negative_amount_rejected(self):
        with pytest.raises(EventParseError, match="non-negative"):
            parse_event_obj(obj(amount_underlying="-10"))

    def test_bad_address_rejected(self):
        with pytest.raises(EventParseError, match="address"):
            parse_event_obj(obj(account="0xABC"))

    def test_factor_range_enforced(self):
        bad = {
            "block": 1, "tx_index": 0, "log_index": 0,
            "kind": "NewCollateralFactor", "market": "DAI", "new_factor": "1.01",
        }
        with pytest.raises(EventParseError, match=r"\[0, 1\]"):
            parse_event_obj(bad)

    def test_index_floor_enforced(self):
        bad = {
            "block": 1, "tx_index": 0, "log_index": 0,
            "kind": "AccrueInterest", "market": "DAI",
            "new_borrow_index": "0.99", "new_exchange_rate": "0.02",
            "interest_accumulated_underlying": "0",
        }
        with pytest.raises(EventParseError, match="at least 1"):
            parse_event_obj(bad)

    def test_price_must_be_positive(self):
        bad = {
            "block": 1, "tx_index": 0, "log_index": 0,
            "kind": "PriceUpdate", "asset": "DAI", "price_usd": "0",
        }
        with pytest.raises(EventParseError, match="positive"):
            parse_event_obj(bad)

    def test_params_blob_must_be_object(self):
        bad = {
            "block": 1, "tx_index": 0, "log_index": 0,
            "kind": "NewInterestParams", "market": "DAI", "params_blob": "x",
        }
        with pytest.raises(EventParseError, match="object"):
            parse_event_obj(bad)


class TestMarketFieldNames:
    """The scoping field is named per kind in the JSON form."""

    def test_market_listed_uses_asset(self):
        event = make_event(1, 0, 0, "MarketListed", "DAI",
                           initial_exchange_rate=Dec("0.02"),
                           initial_collateral_factor=Dec("0.75"))
        assert event_to_obj(event)["asset"] == "DAI"

    def test_liquidate_uses_repay_market(self):
        event = make_event(1, 0, 0, "LiquidateBorrow", "DAI",
                           borrower=ACCT_A, liquidator=ACCT_B,
                           repay_amount_underlying=Dec(1),
                           collateral_market="ETH", seized_ctokens=Dec(1))
        encoded = event_to_obj(event)
        assert encoded["repay_market"] == "DAI"
        assert "market" not in encoded

    def test_close_factor_has_no_market(self):
        event = make_event(1, 0, 0, "NewCloseFactor", None,
                           new_close_factor=Dec("0.5"))
        encoded = event_to_obj(event)
        assert "market" not in encoded and "asset" not in encoded


class TestRoundTrip:
    def test_every_fixture_event_round_trips(self):
        for event in hand_fixture():
            line = serialize_event(event)
            parsed = parse_event_line(line)
            assert parsed == event
            # Canonical form is stable under a second pass.
            assert serialize_event(parsed) == line

    def test_serialized_line_is_compact_and_sorted(self):
        line = serialize_event(hand_fixture()[0])
        assert "\n" not in line and ": " not in line
        keys = list(json.loads(line))
        assert keys == sorted(keys)


class TestStreamOrder:
    """read_events enforces strictly increasing keys."""

    @staticmethod
    def _read(tmp_path, events):
        path = tmp_path / "stream.jsonl"
        write_events(str(path), events)
        return read_events(str(path))

    def test_sorted_stream_passes(self, tmp_path):
        assert self._read(tmp_path, hand_fixture()) == hand_fixture()

    def test_duplicate_key_is_a_violation(self, tmp_path):
        events = hand_fixture()
        events[5] = EventRecord(events[4].key, events[5].kind,
                                events[5].market, events[5].payload)
        with pytest.raises(StreamOrderError, match=r"^event 5 key "):
            self._read(tmp_path, events)

    def test_decreasing_key_is_a_violation(self, tmp_path):
        events = hand_fixture()
        events.append(make_event(1, 0, 0, "PriceUpdate", "DAI", price_usd=Dec(1)))
        with pytest.raises(StreamOrderError, match=rf"^event {len(events) - 1} key "):
            self._read(tmp_path, events)

    def test_stream_yields_every_event_before_the_violation_is_raised(self, tmp_path):
        """The streaming reader keeps going past a violation and raises it
        only at the end of the file, with read_events' text."""
        events = hand_fixture()
        events[3], events[4] = events[4], events[3]
        path = tmp_path / "stream.jsonl"
        write_events(str(path), events)
        stream = iter_events(str(path))
        seen = [next(stream) for _ in events]
        assert seen == events
        with pytest.raises(StreamOrderError) as streamed:
            next(stream)
        with pytest.raises(StreamOrderError) as listed:
            read_events(str(path))
        assert str(streamed.value) == str(listed.value)
        assert str(streamed.value).startswith("event 4 key ")


class TestFileIO:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        events = hand_fixture()
        assert write_events(str(path), events) == len(events)
        assert read_events(str(path)) == events

    def test_read_rejects_unsorted(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        events = hand_fixture()
        write_events(str(path), reversed(events))
        with pytest.raises(StreamOrderError):
            read_events(str(path))

    def test_read_rejects_blank_line(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(serialize_event(hand_fixture()[0]) + "\n\n")
        with pytest.raises(EventParseError, match="line 2"):
            read_events(str(path))


# -- Every rejection branch, pinned ------------------------------------------

DROP = object()  # marks a field to leave out of a line

MINT = {"block": 3, "tx_index": 0, "log_index": 1, "kind": "Mint", "market": "DAI",
        "account": ACCT_A, "amount_underlying": "10", "amount_ctokens": "500"}
LIQUIDATE = {"block": 3, "tx_index": 0, "log_index": 1, "kind": "LiquidateBorrow",
             "repay_market": "DAI", "borrower": ACCT_A, "liquidator": ACCT_B,
             "repay_amount_underlying": "1", "collateral_market": "ETH", "seized_ctokens": "2"}
ACCRUE = {"block": 3, "tx_index": 0, "log_index": 1, "kind": "AccrueInterest", "market": "DAI",
          "new_borrow_index": "1.1", "new_exchange_rate": "0.02",
          "interest_accumulated_underlying": "0"}


def line(base, /, **changes):
    merged = {**base, **changes}
    return json.dumps({k: v for k, v in merged.items() if v is not DROP})


def event(kind, **fields):
    return line({"block": 3, "tx_index": 0, "log_index": 1, "kind": kind}, **fields)


# (id, line, field, exact message); every line is parsed as line 7.
ERROR_TABLE = [
    ("not-an-object", "[1, 2]", None, "line 7: event must be a JSON object"),
    ("json-string", '"Mint"', None, "line 7: event must be a JSON object"),
    ("invalid-json", "{not json", None,
     "line 7: invalid JSON: Expecting property name enclosed in double quotes"),
    ("block-missing", line(MINT, block=DROP), "block",
     "line 7: field 'block': missing ordering field"),
    ("block-negative", line(MINT, block=-1), "block",
     "line 7: field 'block': must be a non-negative integer"),
    ("block-null", line(MINT, block=None), "block",
     "line 7: field 'block': must be a non-negative integer"),
    ("tx-index-bool", line(MINT, tx_index=True), "tx_index",
     "line 7: field 'tx_index': must be a non-negative integer"),
    ("log-index-string", line(MINT, log_index="1"), "log_index",
     "line 7: field 'log_index': must be a non-negative integer"),
    ("log-index-float", line(MINT, log_index=1.5), "log_index",
     "line 7: field 'log_index': must be a non-negative integer"),
    ("bad-block-before-missing-tx", line(MINT, block=-1, tx_index=DROP), "block",
     "line 7: field 'block': must be a non-negative integer"),
    ("kind-missing", line(MINT, kind=DROP), "kind", "line 7: field 'kind': missing field"),
    ("kind-null", line(MINT, kind=None), "kind", "line 7: field 'kind': missing field"),
    ("kind-unknown", line(MINT, kind="Transfer"), "kind",
     "line 7: field 'kind': unknown event kind 'Transfer'"),
    ("kind-number", line(MINT, kind=5), "kind", "line 7: field 'kind': unknown event kind 5"),
    ("unexpected-field", line(MINT, extra="x"), "extra", "line 7: field 'extra': unexpected field"),
    ("unexpected-first-sorted", line(MINT, zz=1, aa=2), "aa",
     "line 7: field 'aa': unexpected field"),
    ("unexpected-before-missing", line(MINT, account=DROP, extra=1), "extra",
     "line 7: field 'extra': unexpected field"),
    ("market-missing", line(MINT, market=DROP), "market", "line 7: field 'market': missing field"),
    ("market-empty", line(MINT, market=""), "market",
     "line 7: field 'market': expected a non-empty asset symbol"),
    ("asset-number", event("PriceUpdate", asset=7, price_usd="1"), "asset",
     "line 7: field 'asset': expected a non-empty asset symbol"),
    ("repay-market-missing", line(LIQUIDATE, repay_market=DROP), "repay_market",
     "line 7: field 'repay_market': missing field"),
    ("market-before-payload", line(MINT, market="", account="0x1"), "market",
     "line 7: field 'market': expected a non-empty asset symbol"),
    ("payload-missing", line(MINT, amount_ctokens=DROP), "amount_ctokens",
     "line 7: field 'amount_ctokens': missing field"),
    ("payload-in-schema-order", line(MINT, account=DROP, amount_underlying="x"), "account",
     "line 7: field 'account': missing field"),
    ("account-short", line(MINT, account="0xABC"), "account",
     "line 7: field 'account': expected a 42-character lowercase 0x hex address"),
    ("account-uppercase", line(MINT, account="0x" + "AB" * 20), "account",
     "line 7: field 'account': expected a 42-character lowercase 0x hex address"),
    ("payer-number",
     event("RepayBorrow", market="DAI", account=ACCT_A, payer=1, amount_underlying="1"), "payer",
     "line 7: field 'payer': expected a 42-character lowercase 0x hex address"),
    ("amount-number", line(MINT, amount_underlying=10), "amount_underlying",
     "line 7: field 'amount_underlying': expected a decimal string"),
    ("amount-null", line(MINT, amount_underlying=None), "amount_underlying",
     "line 7: field 'amount_underlying': expected a decimal string"),
    ("amount-exponent", line(MINT, amount_underlying="1e5"), "amount_underlying",
     "line 7: field 'amount_underlying': not a decimal literal: '1e5'"),
    ("amount-too-precise", line(MINT, amount_ctokens="0.0000000000000000001"), "amount_ctokens",
     "line 7: field 'amount_ctokens': more than 18 fractional digits: '0.0000000000000000001'"),
    ("amount-negative", line(MINT, amount_underlying="-1"), "amount_underlying",
     "line 7: field 'amount_underlying': amount must be non-negative"),
    ("rate-zero",
     event("MarketListed", asset="DAI", initial_exchange_rate="0", initial_collateral_factor="0.5"),
     "initial_exchange_rate", "line 7: field 'initial_exchange_rate': value must be positive"),
    ("factor-above-one", event("NewCollateralFactor", market="DAI", new_factor="1.01"),
     "new_factor", "line 7: field 'new_factor': factor must lie in [0, 1]"),
    ("factor-negative", event("NewCollateralFactor", market="DAI", new_factor="-0.1"),
     "new_factor", "line 7: field 'new_factor': factor must lie in [0, 1]"),
    ("close-factor-above-one", event("NewCloseFactor", new_close_factor="2"),
     "new_close_factor", "line 7: field 'new_close_factor': factor must lie in [0, 1]"),
    ("index-below-one", line(ACCRUE, new_borrow_index="0.99"), "new_borrow_index",
     "line 7: field 'new_borrow_index': index must be at least 1"),
    ("accrued-negative", line(ACCRUE, interest_accumulated_underlying="-0.5"),
     "interest_accumulated_underlying",
     "line 7: field 'interest_accumulated_underlying': amount must be non-negative"),
    ("price-zero", event("PriceUpdate", asset="DAI", price_usd="0"), "price_usd",
     "line 7: field 'price_usd': value must be positive"),
    ("collateral-market-empty", line(LIQUIDATE, collateral_market=""), "collateral_market",
     "line 7: field 'collateral_market': expected a non-empty asset symbol"),
    ("model-id-empty", event("NewInterestRateModel", market="DAI", model_id=""), "model_id",
     "line 7: field 'model_id': expected a non-empty model identifier"),
    ("params-not-object", event("NewInterestParams", market="DAI", params_blob="x"),
     "params_blob", "line 7: field 'params_blob': expected an object of decimal strings"),
    ("params-value-number",
     event("NewInterestParams", market="DAI", params_blob={"a": "1", "b": 2}), "params_blob",
     "line 7: field 'params_blob': expected a decimal string"),
    ("params-value-malformed",
     event("NewInterestParams", market="DAI", params_blob={"a": "1.2.3"}), "params_blob",
     "line 7: field 'params_blob': not a decimal literal: '1.2.3'"),
]


class TestErrorTable:
    @pytest.mark.parametrize("text,field,message", [case[1:] for case in ERROR_TABLE],
                             ids=[case[0] for case in ERROR_TABLE])
    def test_exact_error(self, text, field, message):
        with pytest.raises(EventParseError) as excinfo:
            parse_event_line(text, line_number=7)
        assert str(excinfo.value) == message
        assert excinfo.value.line_number == 7
        assert excinfo.value.field == field

    def test_blank_line(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(line(MINT) + "\n   \n")
        with pytest.raises(EventParseError) as excinfo:
            list(iter_events(str(path)))
        assert str(excinfo.value) == "line 2: blank line"
        assert excinfo.value.line_number == 2
        assert excinfo.value.field is None

    @pytest.mark.parametrize("lines_before", [0, 1, 5000])
    def test_bytes_that_are_not_utf8(self, tmp_path, lines_before):
        # Far enough in that the bad byte sits in a later chunk of the file.
        path = tmp_path / "stream.jsonl"
        good = "".join(line(MINT, block=i) + "\n" for i in range(lines_before))
        path.write_bytes(good.encode() + b'{"kind": "\xff"}\n' + line(MINT).encode() + b"\n")
        with pytest.raises(EventParseError) as excinfo:
            read_events(str(path))
        assert str(excinfo.value) == f"line {lines_before + 1}: not UTF-8 text: invalid start byte"
        assert excinfo.value.field is None

    def test_order_error_text(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(line(MINT, block=5) + "\n" + line(MINT, block=6) + "\n"
                        + line(MINT, block=6) + "\n")
        with pytest.raises(StreamOrderError) as excinfo:
            read_events(str(path))
        assert str(excinfo.value) == (
            "event 2 key OrderingKey(block=6, tx_index=0, log_index=1) does not follow "
            "OrderingKey(block=6, tx_index=0, log_index=1)"
        )

    def test_parse_error_on_later_line_wins_over_order_error(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(line(MINT, block=5) + "\n" + line(MINT, block=4) + "\n"
                        + line(MINT, amount_underlying="x") + "\n")
        with pytest.raises(EventParseError) as excinfo:
            read_events(str(path))
        assert excinfo.value.line_number == 3
        assert excinfo.value.field == "amount_underlying"


class TestLinePadding:
    """A stream line may be padded only with JSON whitespace: space, tab,
    CR and LF."""

    @pytest.mark.parametrize("pad", ["\u00a0", "\x0c", "\x0b", "\u3000"])
    def test_other_whitespace_is_invalid_json(self, tmp_path, pad):
        padded = pad + line(MINT, block=4) + pad
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(padded)
        path = tmp_path / "stream.jsonl"
        path.write_text(line(MINT) + "\n" + padded + "\n", encoding="utf-8")
        with pytest.raises(EventParseError) as excinfo:
            list(iter_events(str(path)))
        assert str(excinfo.value) == f"line 2: invalid JSON: {expected.value.msg}"
        assert excinfo.value.line_number == 2
        assert excinfo.value.field is None

    @pytest.mark.parametrize("pad", [" ", "\t", " \t  "])
    def test_json_whitespace_padding_parses(self, tmp_path, pad):
        path = tmp_path / "stream.jsonl"
        path.write_text(pad + line(MINT) + pad + "\n", encoding="utf-8")
        assert read_events(str(path)) == [parse_event_line(line(MINT))]

    @pytest.mark.parametrize("blank", [" ", "    ", " \t "])
    def test_line_of_json_whitespace_is_blank(self, tmp_path, blank):
        path = tmp_path / "stream.jsonl"
        path.write_text(line(MINT) + "\n" + blank + "\n", encoding="utf-8")
        with pytest.raises(EventParseError) as excinfo:
            list(iter_events(str(path)))
        assert str(excinfo.value) == "line 2: blank line"


class TestRejectionRegressions:
    """Inputs that once escaped the parser as other exception types or parsed."""

    @pytest.mark.parametrize("kind", [[], {}, ["Mint"]])
    def test_unhashable_kind(self, kind):
        with pytest.raises(EventParseError) as excinfo:
            parse_event_line(line(MINT, kind=kind), line_number=2)
        assert excinfo.value.line_number == 2
        assert excinfo.value.field == "kind"
        assert str(excinfo.value) == f"line 2: field 'kind': unknown event kind {kind!r}"

    def test_amount_beyond_carrier(self):
        with pytest.raises(EventParseError) as excinfo:
            parse_event_line(line(MINT, amount_underlying="1" + "0" * 80), line_number=2)
        assert excinfo.value.line_number == 2
        assert excinfo.value.field == "amount_underlying"
        assert str(excinfo.value) == (
            "line 2: field 'amount_underlying': mantissa exceeds the signed 256-bit carrier"
        )

    def test_params_value_beyond_carrier(self):
        text = event("NewInterestParams", market="DAI", params_blob={"a": "9" * 80})
        with pytest.raises(EventParseError) as excinfo:
            parse_event_line(text, line_number=2)
        assert excinfo.value.field == "params_blob"

    @pytest.mark.parametrize("text", [
        '{"block": ' + "1" * 5000 + "}",  # beyond int()'s digit limit
        "[" * 100_000,  # beyond the recursion limit
    ])
    def test_json_the_decoder_gives_up_on(self, text):
        with pytest.raises(EventParseError) as excinfo:
            parse_event_line(text, line_number=2)
        assert str(excinfo.value).startswith("line 2: invalid JSON: ")
        assert excinfo.value.field is None

    @pytest.mark.parametrize("text", [" " + line(MINT) + " ", "\ufeff" + line(MINT), line(MINT) + " x"])
    def test_json_around_the_object_is_judged_like_json_loads(self, text):
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            with pytest.raises(EventParseError) as excinfo:
                parse_event_line(text, line_number=2)
            assert str(excinfo.value) == f"line 2: invalid JSON: {exc.msg}"
        else:
            assert parse_event_line(text) == parse_event_line(line(MINT))

    @pytest.mark.parametrize("amount", ["\uff10.\uff15", "\u0660.\u0665", "0.5\n", "0.5 ", "\u00b2"])
    def test_non_ascii_or_padded_amount(self, amount):
        with pytest.raises(EventParseError) as excinfo:
            parse_event_line(line(MINT, amount_underlying=amount), line_number=2)
        assert excinfo.value.field == "amount_underlying"
        assert str(excinfo.value) == (
            f"line 2: field 'amount_underlying': not a decimal literal: {amount!r}"
        )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.sampled_from(["0", "1", "-1", "0.5", "1.1", "2", ACCT_A]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
event_keys = ["block", "tx_index", "log_index", "kind", "market", "asset", "repay_market",
              "account", "payer", "borrower", "liquidator", "amount_underlying", "amount_ctokens",
              "collateral_market", "seized_ctokens", "new_factor", "params_blob", "price_usd"]
near_events = st.builds(
    lambda base, changes: {**base, **changes},
    st.sampled_from([MINT, LIQUIDATE, ACCRUE]),
    st.dictionaries(st.sampled_from(event_keys) | st.sampled_from(sorted(KINDS)),
                    json_values | st.sampled_from(sorted(KINDS)), max_size=3),
)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(json_values | near_events)
    def test_only_event_parse_errors_escape(self, value):
        text = json.dumps(value)
        try:
            parsed = parse_event_line(text, line_number=1)
        except EventParseError as exc:
            assert exc.line_number == 1
        else:
            assert parse_event_line(serialize_event(parsed)) == parsed


# -- Round trips across the carrier -------------------------------------------

_TOP = MANTISSA_BOUND - 1  # the largest mantissa the carrier holds


def _decimals(low, high):
    """Decs in [low, high] with 0-18 fraction digits and whole parts of up
    to _MAX_WHOLE_DIGITS digits; a draw beyond the range is clamped to its
    nearer end, so the bounds themselves come up often."""
    def digits(counts):
        return counts.flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n))

    def clamped(sign, whole, frac):
        mantissa = sign * (int(whole or "0") * SCALE + int(frac.ljust(FRACTIONAL_DIGITS, "0")))
        return Dec.from_mantissa(min(max(mantissa, low), high))

    return st.builds(
        clamped,
        st.sampled_from([1, -1] if low < 0 else [1]),
        digits(st.just(_MAX_WHOLE_DIGITS) | st.integers(0, _MAX_WHOLE_DIGITS)),
        digits(st.just(FRACTIONAL_DIGITS) | st.integers(0, FRACTIONAL_DIGITS)),
    )


_amounts = _decimals(0, _TOP)
_positives = _decimals(1, _TOP)
_fractions = _decimals(0, SCALE)
_accounts = st.sampled_from([ACCT_A, ACCT_B]) | st.text("0123456789abcdef", min_size=40, max_size=40).map(
    lambda digits: "0x" + digits)
_names = st.text(min_size=1, max_size=6)

# Each kind's scoping field and its payload's fields, as the README's table
# gives them, with the range each field accepts.
_KIND_PAYLOADS = {
    "MarketListed": ("asset", {"initial_exchange_rate": _positives, "initial_collateral_factor": _fractions}),
    "Mint": ("market", {"account": _accounts, "amount_underlying": _amounts, "amount_ctokens": _amounts}),
    "Redeem": ("market", {"account": _accounts, "amount_underlying": _amounts, "amount_ctokens": _amounts}),
    "Borrow": ("market", {"account": _accounts, "amount_underlying": _amounts}),
    "RepayBorrow": ("market", {"account": _accounts, "payer": _accounts, "amount_underlying": _amounts}),
    "LiquidateBorrow": ("repay_market", {
        "borrower": _accounts, "liquidator": _accounts, "repay_amount_underlying": _amounts,
        "collateral_market": _names, "seized_ctokens": _amounts,
    }),
    "AccrueInterest": ("market", {
        "new_borrow_index": _decimals(SCALE, _TOP), "new_exchange_rate": _positives,
        "interest_accumulated_underlying": _amounts,
    }),
    "NewCollateralFactor": ("market", {"new_factor": _fractions}),
    "NewInterestRateModel": ("market", {"model_id": _names}),
    "NewInterestParams": ("market", {
        "params_blob": st.dictionaries(st.text(max_size=4), _decimals(-_TOP, _TOP), max_size=3),
    }),
    "NewCloseFactor": (None, {"new_close_factor": _fractions}),
    "PriceUpdate": ("asset", {"price_usd": _positives}),
}

_naturals = st.integers(0, 10 ** 12)
_events_of_every_kind = st.sampled_from(sorted(_KIND_PAYLOADS)).flatmap(lambda kind: st.builds(
    lambda key, market, payload: EventRecord(key, kind, market, payload),
    st.builds(OrderingKey, _naturals, _naturals, _naturals),
    st.none() if _KIND_PAYLOADS[kind][0] is None else _names,
    st.fixed_dictionaries(_KIND_PAYLOADS[kind][1]),
))

# _DECIMAL literals that probe each limit: a plus sign, leading zeros,
# whole parts one digit short of, at, and one digit past the carrier's
# longest, and 18 or 19 fraction digits.
_decimal_texts = st.builds(
    lambda sign, zeros, whole, frac: sign + "0" * zeros + whole + ("" if frac is None else "." + frac),
    st.sampled_from(["", "+", "-"]),
    st.sampled_from([0, 0, 1, 3]),
    (st.sampled_from([_MAX_WHOLE_DIGITS - 1, _MAX_WHOLE_DIGITS, _MAX_WHOLE_DIGITS + 1])
     | st.integers(1, _MAX_WHOLE_DIGITS + 1)).flatmap(
        lambda n: st.text("0123456789", min_size=n, max_size=n)),
    st.none() | (st.sampled_from([1, FRACTIONAL_DIGITS, FRACTIONAL_DIGITS + 1])
                 | st.integers(1, FRACTIONAL_DIGITS + 1)).flatmap(
        lambda n: st.text("0123456789", min_size=n, max_size=n)),
) | st.from_regex(_DECIMAL, fullmatch=True)

# Every non-negative amount field: (a valid line holding it, its name).
_AMOUNT_SITES = [
    (MINT, "amount_underlying"), (MINT, "amount_ctokens"),
    (LIQUIDATE, "repay_amount_underlying"), (LIQUIDATE, "seized_ctokens"),
    (ACCRUE, "interest_accumulated_underlying"),
    ({**MINT, "kind": "Borrow", "amount_ctokens": DROP}, "amount_underlying"),
    ({**MINT, "kind": "RepayBorrow", "amount_ctokens": DROP, "payer": ACCT_B}, "amount_underlying"),
]


class TestRoundTripAcrossTheCarrier:
    def test_every_kind_is_generated(self):
        assert set(_KIND_PAYLOADS) == KINDS

    @settings(max_examples=400, deadline=None)
    @given(_events_of_every_kind)
    def test_serialized_event_parses_back(self, event):
        assert parse_event_line(serialize_event(event)) == event

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(_AMOUNT_SITES), _decimal_texts)
    def test_amount_text_decodes_as_dec_does(self, site, text):
        base, name = site
        try:
            value = Dec(text)
        except (DecParseError, DecOverflowError) as exc:
            error = str(exc)
        else:
            error = "amount must be non-negative" if value.mantissa < 0 else None
        text_line = line(base, **{name: text})
        if error is None:
            assert parse_event_line(text_line, line_number=1).payload[name] == value
        else:
            with pytest.raises(EventParseError) as excinfo:
                parse_event_line(text_line, line_number=1)
            assert str(excinfo.value) == f"line 1: field '{name}': {error}"
