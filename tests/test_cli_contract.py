"""One failure contract for every command that reads a stream, a snapshot
or a scenario spec, or writes an output file.

Whatever the library raises on a bad stream, a tampered snapshot, an
out-of-range spec or an output path that cannot be written, the command
ends with exactly one ``error: ...`` line on stderr, nothing on stdout,
and exit code 1.
"""

import json

import pytest

from plfkit.cli import main
from plfkit.events import serialize_event, write_events
from plfkit.fixedpoint import Dec
from plfkit.model import dict_digest
from plfkit.scenarios import ConcentrationPlan, default_spec, spec_to_dict
from streams import ACCT_A, ACCT_B, hand_fixture, make_event

_HUGE = Dec("9" * 58)

# Each stream's failure, as the one line every command must print.
_STREAMS = {
    "overdrawn-redeem": (
        hand_fixture()[:5] + [
            make_event(2, 0, 0, "Redeem", "DAI", account=ACCT_A,
                       amount_underlying=Dec(1), amount_ctokens=Dec(50)),
        ],
        f"error: event 2:0:0: redeem of 50 ctokens exceeds balance 0 for {ACCT_A}\n",
    ),
    # The sixth Mint's own sum leaves the 256-bit carrier.
    "overflowing-mint": (
        hand_fixture()[:5] + [
            make_event(block, 0, 0, "Mint", "DAI", account=ACCT_A,
                       amount_underlying=_HUGE, amount_ctokens=_HUGE)
            for block in range(2, 8)
        ],
        "error: event 7:0:0: mantissa exceeds the signed 256-bit carrier\n",
    ),
    "unknown-collateral-market": (
        hand_fixture()[:17] + [
            make_event(12, 0, 0, "LiquidateBorrow", "DAI", borrower=ACCT_A, liquidator=ACCT_B,
                       repay_amount_underlying=Dec(100), collateral_market="XYZ",
                       seized_ctokens=Dec(1)),
        ],
        "error: event 12:0:0: unknown market 'XYZ'\n",
    ),
}

# Streams that replay cleanly but cannot be valued: each ends `efficiency`,
# which values every account an event touched, in this one line.
_VALUATION_FAILURES = {
    # Power 10^50 against a debt of 10^-18: only the power/borrow ratio
    # leaves the carrier.
    "ratio-overflow": (
        [
            make_event(1, 0, 0, "MarketListed", "DAI",
                       initial_exchange_rate=Dec(1), initial_collateral_factor=Dec(1)),
            make_event(1, 1, 0, "PriceUpdate", "DAI", price_usd=Dec(1)),
            make_event(2, 0, 0, "Mint", "DAI", account=ACCT_A,
                       amount_underlying=Dec(10 ** 50), amount_ctokens=Dec(10 ** 50)),
            make_event(3, 0, 0, "Borrow", "DAI", account=ACCT_A,
                       amount_underlying=Dec("0.000000000000000001")),
        ],
        "error: mantissa exceeds the signed 256-bit carrier\n",
    ),
    "mint-without-price": (
        [
            make_event(1, 0, 0, "MarketListed", "ETH",
                       initial_exchange_rate=Dec("0.05"), initial_collateral_factor=Dec("0.6")),
            make_event(2, 0, 0, "Mint", "ETH", account=ACCT_A,
                       amount_underlying=Dec(5), amount_ctokens=Dec(100)),
        ],
        "error: no price recorded for asset 'ETH'\n",
    ),
}

_STREAM_COMMANDS = {
    "replay": ("replay",),
    "liquidable": ("liquidable",),
    "sensitivity": ("sensitivity", "--asset", "DAI", "--shocks", "0,0.5"),
    "concentration": ("concentration", "--side", "supply"),
    "efficiency": ("efficiency",),
    "timeseries": ("timeseries",),
    "snapshot-save": ("snapshot", "save", "--out-path", "{tmp}/never.snap"),
}

_SNAPSHOT_COMMANDS = {
    "replay-snapshot-in": ("replay", "--events", "{stream}", "--snapshot-in", "{snap}"),
    "liquidable": ("liquidable", "--snapshot", "{snap}"),
    "sensitivity": ("sensitivity", "--snapshot", "{snap}", "--asset", "DAI", "--shocks", "0.1"),
    "concentration": ("concentration", "--snapshot", "{snap}", "--side", "borrow"),
    "snapshot-load": ("snapshot", "load", "--snapshot", "{snap}"),
    "snapshot-verify": ("snapshot", "verify", "--snapshot", "{snap}"),
}

# Each command writes one output into a directory that does not exist.
_UNWRITABLE_OUTPUTS = {
    "liquidable-out": ("liquidable", "--events", "{stream}", "--out", "{missing}/rows.csv"),
    "replay-snapshot-out": ("replay", "--events", "{stream}", "--snapshot-out", "{missing}/out.snap"),
    "snapshot-save-out-path": ("snapshot", "save", "--events", "{stream}", "--out-path", "{missing}/out.snap"),
    "gen-scenario-events-out": ("gen-scenario", "--seed", "7", "--event-count", "120",
                                "--events-out", "{missing}/gen.jsonl", "--annotations-out", "{tmp}/gen.json"),
    "gen-scenario-annotations-out": ("gen-scenario", "--seed", "7", "--event-count", "120",
                                     "--events-out", "{tmp}/gen.jsonl", "--annotations-out", "{missing}/gen.json"),
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("stream", sorted(_STREAMS))
@pytest.mark.parametrize("command", sorted(_STREAM_COMMANDS))
def test_bad_stream(capsys, tmp_path, command, stream):
    events, expected = _STREAMS[stream]
    path = tmp_path / "bad.jsonl"
    write_events(str(path), events)
    argv = [part.format(tmp=tmp_path) for part in _STREAM_COMMANDS[command]]
    head = 2 if argv[0] == "snapshot" else 1
    code, out, err = _run(capsys, argv[:head] + ["--events", str(path)] + argv[head:])
    _assert_one_error_line(code, out, err)
    assert err == expected
    assert not (tmp_path / "never.snap").exists()


# A line that ends before its object does: the stream's parse error, which
# outranks every other failure of a stream command.
_TRUNCATED = '{"block": 99, "tx_index": 0'
_OVERDRAWN = _STREAMS["overdrawn-redeem"][0]
_OUT_OF_ORDER = hand_fixture()[:5] + [
    make_event(1, 0, 0, "PriceUpdate", "DAI", price_usd=Dec(2)),
]


def _write_stream(path, events, *lines):
    """``events`` as JSONL, followed by ``lines`` as they are."""
    write_events(str(path), events)
    with open(path, "a", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in lines)
    return path


def _stream_argv(command, path, tmp_path):
    argv = [part.format(tmp=tmp_path) for part in _STREAM_COMMANDS[command]]
    head = 2 if argv[0] == "snapshot" else 1
    return argv[:head] + ["--events", str(path)] + argv[head:]


# Each stream fails twice; the later failure, below the earlier one's rank,
# must be the one reported: a malformed line anywhere, then a key-order
# violation, then a transition error.
_PRECEDENCE = {
    "malformed-line-beats-earlier-overdraw": (
        _OVERDRAWN, [_TRUNCATED], "{path}: line 7: invalid JSON: Expecting ',' delimiter",
    ),
    "malformed-line-beats-earlier-order-violation": (
        _OUT_OF_ORDER, [_TRUNCATED], "{path}: line 7: invalid JSON: Expecting ',' delimiter",
    ),
    "order-violation-beats-earlier-overdraw": (
        _OVERDRAWN + [make_event(1, 9, 0, "PriceUpdate", "DAI", price_usd=Dec(2))], [],
        "{path}: event 6 key OrderingKey(block=1, tx_index=9, log_index=0) does not follow "
        "OrderingKey(block=2, tx_index=0, log_index=0)",
    ),
}


@pytest.mark.parametrize("case", sorted(_PRECEDENCE))
@pytest.mark.parametrize("command", sorted(_STREAM_COMMANDS))
def test_later_stream_error_outranks_earlier_failure(capsys, tmp_path, command, case):
    events, lines, expected = _PRECEDENCE[case]
    path = _write_stream(tmp_path / "bad.jsonl", events, *lines)
    code, out, err = _run(capsys, _stream_argv(command, path, tmp_path))
    _assert_one_error_line(code, out, err)
    assert err == "error: " + expected.format(path=path) + "\n"
    assert not (tmp_path / "never.snap").exists()


@pytest.mark.parametrize("command", sorted(c for c in _STREAM_COMMANDS if c != "timeseries"))
def test_malformed_line_beyond_the_at_block_cut(capsys, tmp_path, command):
    path = _write_stream(tmp_path / "bad.jsonl", hand_fixture(), _TRUNCATED)
    argv = _stream_argv(command, path, tmp_path)
    code, out, err = _run(capsys, argv + ["--at-block", "1"])
    _assert_one_error_line(code, out, err)
    assert err == f"error: {path}: line 21: invalid JSON: Expecting ',' delimiter\n"


@pytest.mark.parametrize("case", [
    "malformed-line-beats-earlier-order-violation", "order-violation-beats-earlier-overdraw",
])
def test_bad_stream_outranks_tampered_snapshot_in(capsys, tmp_path, case):
    def edit(document):
        document["state"]["params"]["close_factor"] = "0.6"

    _, snap = _edited_hand_snapshot(capsys, tmp_path, edit)
    events, lines, expected = _PRECEDENCE[case]
    path = _write_stream(tmp_path / "bad.jsonl", events, *lines)
    code, out, err = _run(capsys, ["replay", "--snapshot-in", str(snap), "--events", str(path)])
    _assert_one_error_line(code, out, err)
    assert err == "error: " + expected.format(path=path) + "\n"


def test_malformed_line_outranks_timeseries_first_sample(capsys, tmp_path):
    # ETH is minted in block 1 before any price: the first sample cannot be valued.
    events = [
        make_event(1, 0, 0, "MarketListed", "ETH",
                   initial_exchange_rate=Dec("0.05"), initial_collateral_factor=Dec("0.6")),
        make_event(1, 1, 0, "Mint", "ETH", account=ACCT_A,
                   amount_underlying=Dec(5), amount_ctokens=Dec(100)),
        make_event(2, 0, 0, "PriceUpdate", "ETH", price_usd=Dec(100)),
    ]
    valid = _write_stream(tmp_path / "unpriced.jsonl", events)
    code, out, err = _run(capsys, ["timeseries", "--events", str(valid)])
    _assert_one_error_line(code, out, err)
    assert err == "error: no price recorded for asset 'ETH'\n"
    path = _write_stream(tmp_path / "bad.jsonl", events, _TRUNCATED)
    code, out, err = _run(capsys, ["timeseries", "--events", str(path)])
    _assert_one_error_line(code, out, err)
    assert err == f"error: {path}: line 4: invalid JSON: Expecting ',' delimiter\n"


def test_line_padded_with_non_json_whitespace(capsys, tmp_path):
    # str.strip() would take the NBSPs off; json.loads does not.
    padded = "\u00a0" + serialize_event(hand_fixture()[5]) + "\u00a0"
    path = _write_stream(tmp_path / "bad.jsonl", hand_fixture()[:5], padded)
    code, out, err = _run(capsys, ["replay", "--events", str(path)])
    _assert_one_error_line(code, out, err)
    assert err == f"error: {path}: line 6: invalid JSON: Expecting value\n"


@pytest.mark.parametrize("stream", sorted(_VALUATION_FAILURES))
def test_efficiency_valuation_failure(capsys, tmp_path, stream):
    events, expected = _VALUATION_FAILURES[stream]
    path = tmp_path / "unvaluable.jsonl"
    write_events(str(path), events)
    assert main(["replay", "--events", str(path)]) == 0
    capsys.readouterr()
    code, out, err = _run(capsys, ["efficiency", "--events", str(path)])
    _assert_one_error_line(code, out, err)
    assert err == expected


@pytest.mark.parametrize("field,value,expected", [
    ("initial_exchange_rate", "0", "error: market DAI initial_exchange_rate 0: value must be positive\n"),
    ("collateral_factor", "1.5", "error: market DAI collateral_factor 1.5: factor must lie in [0, 1]\n"),
    ("close_factor", "2", "error: close_factor 2: factor must lie in [0, 1]\n"),
], ids=["exchange-rate-0", "collateral-factor-1.5", "close-factor-2"])
def test_out_of_range_spec_decimal(capsys, tmp_path, field, value, expected):
    spec = spec_to_dict(default_spec(7, event_count=200))
    if field == "close_factor":
        spec[field] = value
    else:
        spec["markets"][0][field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, ["gen-scenario", "--spec", str(path), "--events-out", str(tmp_path / "s.jsonl"),
                                   "--annotations-out", str(tmp_path / "s.json")])
    _assert_one_error_line(code, out, err)
    assert err == expected
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("path", [
    ("seed",), ("markets",), ("accounts",), ("event_count",),
    ("markets", 0, "symbol"), ("markets", 1, "initial_exchange_rate"), ("markets", 0, "collateral_factor"),
    ("markets", 0, "price"), ("markets", 1, "price", "initial"),
    ("planned_liquidations", 0, "account"), ("planned_liquidations", 0, "liquidable_block"),
    ("planned_liquidations", 0, "liquidation_block"),
    ("planned_concentration", "side"), ("planned_concentration", "shares"),
], ids=lambda path: ".".join(map(str, path)))
def test_spec_missing_required_key(capsys, tmp_path, path):
    spec = default_spec(7, event_count=200)
    spec.planned_concentration = ConcentrationPlan("supply", (Dec("0.274"),))
    data = spec_to_dict(spec)
    holder = data
    for step in path[:-1]:
        holder = holder[step]
    del holder[path[-1]]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data))
    code, out, err = _run(capsys, ["gen-scenario", "--spec", str(spec_path), "--events-out", str(tmp_path / "s.jsonl"),
                                   "--annotations-out", str(tmp_path / "s.json")])
    _assert_one_error_line(code, out, err)
    assert err == f"error: {spec_path}: bad scenario spec: '{path[-1]}'\n"
    assert not (tmp_path / "s.jsonl").exists()


def _edited_hand_snapshot(capsys, tmp_path, edit):
    """The hand fixture's stream and end-state snapshot, with edit applied
    to the snapshot's parsed document."""
    stream = tmp_path / "hand.jsonl"
    write_events(str(stream), hand_fixture())
    snap = tmp_path / "hand.snap"
    assert main(["snapshot", "save", "--events", str(stream), "--out-path", str(snap)]) == 0
    document = json.loads(snap.read_text())
    edit(document)
    snap.write_text(json.dumps(document))
    capsys.readouterr()
    return stream, snap


@pytest.mark.parametrize("command", sorted(_SNAPSHOT_COMMANDS))
def test_tampered_snapshot(capsys, tmp_path, command):
    def edit(document):
        document["state"]["params"]["close_factor"] = "0.6"

    stream, snap = _edited_hand_snapshot(capsys, tmp_path, edit)
    argv = [part.format(stream=stream, snap=snap) for part in _SNAPSHOT_COMMANDS[command]]
    code, out, err = _run(capsys, argv)
    _assert_one_error_line(code, out, err)
    assert "snapshot digest mismatch" in err


# States a load rejects before any digest is taken: a container that is not
# a JSON object, a key or member no event writes, a canonical decimal beyond
# the carrier or outside the range of its field. Each is re-digested, so that the check refuses it, not the
# digest.
_DAI_ASSET = """state['markets']['DAI']['asset']: must be {"decimals":18,"symbol":"DAI"}, not """
_ACCT_NEW = "0x" + "cd" * 20  # holds nothing in the hand fixture
_MALFORMED_STATES = {
    "markets-list": (lambda state: state.update(markets=[]), "state['markets'] must be an object, not list"),
    "prices-list": (lambda state: state.update(prices=[]), "state['prices'] must be an object, not list"),
    "holdings-list": (
        lambda state: state["participants"].update({ACCT_A: []}),
        f"state['participants']['{ACCT_A}'] must be an object, not list",
    ),
    "ctoken-balance-70-digits": (
        lambda state: state["participants"][ACCT_A]["DAI"].update(ctoken_balance="9" * 70),
        "mantissa exceeds the signed 256-bit carrier",
    ),
    # Members no event writes: each market's asset and the liquidation
    # incentive are the constants every stream writes.
    "decimals-true": (
        lambda state: state["markets"]["DAI"]["asset"].update(decimals=True),
        _DAI_ASSET + '{"decimals":true,"symbol":"DAI"}',
    ),
    "decimals-1.5": (
        lambda state: state["markets"]["DAI"]["asset"].update(decimals=1.5),
        _DAI_ASSET + '{"decimals":1.5,"symbol":"DAI"}',
    ),
    "decimals-6": (
        lambda state: state["markets"]["DAI"]["asset"].update(decimals=6),
        _DAI_ASSET + '{"decimals":6,"symbol":"DAI"}',
    ),
    "symbol-int": (
        lambda state: state["markets"]["DAI"]["asset"].update(symbol=5),
        _DAI_ASSET + '{"decimals":18,"symbol":5}',
    ),
    "symbol-not-key": (
        lambda state: state["markets"]["DAI"]["asset"].update(symbol="ETH"),
        _DAI_ASSET + '{"decimals":18,"symbol":"ETH"}',
    ),
    "liquidation-incentive--0.1": (
        lambda state: state["params"].update(liquidation_incentive="-0.1"),
        "state['params']['liquidation_incentive']: must be \"0\", not \"-0.1\"",
    ),
    "liquidation-incentive-0.1": (
        lambda state: state["params"].update(liquidation_incentive="0.1"),
        "state['params']['liquidation_incentive']: must be \"0\", not \"0.1\"",
    ),
    # Keys and values no event writes: an empty market key, an account that
    # is not an address, a position in an unlisted market, a model_id that
    # is not a string.
    "market-key-empty": (
        lambda state: state["markets"].update(
            {"": {**state["markets"]["DAI"], "asset": {"decimals": 18, "symbol": ""}}}
        ),
        "state['markets']['']: a market key must be a non-empty symbol",
    ),
    "participant-not-address": (
        lambda state: state["participants"].update({"not-an-address": {}}),
        "state['participants']['not-an-address']: must be a 42-character lowercase 0x hex address",
    ),
    # An event opens an account only together with its first position.
    "holdings-empty": (
        lambda state: state["participants"].update({_ACCT_NEW: {}}),
        f"state['participants']['{_ACCT_NEW}']: an account must hold at least one position",
    ),
    # The cursor's fields are the non-negative JSON integers a key holds:
    # not a bool, not a float.
    "cursor-block--1": (
        lambda state: state["cursor"].update(block=-1),
        "state['cursor']['block']: must be a non-negative integer",
    ),
    "cursor-tx-index-true": (
        lambda state: state["cursor"].update(tx_index=True),
        "state['cursor']['tx_index']: must be a non-negative integer",
    ),
    "cursor-log-index-1.0": (
        lambda state: state["cursor"].update(log_index=1.0),
        "state['cursor']['log_index']: must be a non-negative integer",
    ),
    "position-unlisted-market": (
        lambda state: state["participants"][ACCT_A].update(
            XYZ={"ctoken_balance": "5", "borrow_principal": "0", "borrow_index_snapshot": "1"}
        ),
        f"state['participants']['{ACCT_A}']['XYZ']: no market 'XYZ' is listed",
    ),
    "model-id-list": (
        lambda state: state["markets"]["DAI"]["interest_model"].update(model_id=[1, {"a": 2}]),
        "state['markets']['DAI']['interest_model']['model_id'] must be a string, not list",
    ),
    # Values out of the range an event can write. An index snapshot of 0
    # would divide by zero in every valuation of the position.
    "borrow-index-snapshot-0": (
        lambda state: state["participants"][ACCT_A]["DAI"].update(borrow_index_snapshot="0"),
        f"state['participants']['{ACCT_A}']['DAI']['borrow_index_snapshot']: index must be at least 1",
    ),
    "borrow-index-0.5": (
        lambda state: state["markets"]["ETH"].update(borrow_index="0.5"),
        "state['markets']['ETH']['borrow_index']: index must be at least 1",
    ),
    "price--1": (
        lambda state: state["prices"].update(DAI="-1"),
        "state['prices']['DAI']: value must be positive",
    ),
    "exchange-rate-0": (
        lambda state: state["markets"]["DAI"].update(exchange_rate="0"),
        "state['markets']['DAI']['exchange_rate']: value must be positive",
    ),
    "close-factor-1.5": (
        lambda state: state["params"].update(close_factor="1.5"),
        "state['params']['close_factor']: factor must lie in [0, 1]",
    ),
    "collateral-factor-1.5": (
        lambda state: state["markets"]["DAI"].update(collateral_factor="1.5"),
        "state['markets']['DAI']['collateral_factor']: factor must lie in [0, 1]",
    ),
    "ctoken-balance--5": (
        lambda state: state["participants"][ACCT_B]["ETH"].update(ctoken_balance="-5"),
        f"state['participants']['{ACCT_B}']['ETH']['ctoken_balance']: amount must be non-negative",
    ),
    "borrow-principal--1": (
        lambda state: state["participants"][ACCT_B]["DAI"].update(borrow_principal="-1"),
        f"state['participants']['{ACCT_B}']['DAI']['borrow_principal']: amount must be non-negative",
    ),
    "total-borrows--1": (
        lambda state: state["markets"]["ETH"].update(total_borrows="-1"),
        "state['markets']['ETH']['total_borrows']: amount must be non-negative",
    ),
    "total-ctoken-supply--1": (
        lambda state: state["markets"]["ETH"].update(total_ctoken_supply="-1"),
        "state['markets']['ETH']['total_ctoken_supply']: amount must be non-negative",
    ),
}


@pytest.mark.parametrize("state", sorted(_MALFORMED_STATES))
@pytest.mark.parametrize("command", sorted(_SNAPSHOT_COMMANDS))
def test_malformed_snapshot_state(capsys, tmp_path, command, state):
    edit, reason = _MALFORMED_STATES[state]

    def redigested(document):
        edit(document["state"])
        document["digest"] = dict_digest(document["state"])

    stream, snap = _edited_hand_snapshot(capsys, tmp_path, redigested)
    argv = [part.format(stream=stream, snap=snap) for part in _SNAPSHOT_COMMANDS[command]]
    code, out, err = _run(capsys, argv)
    _assert_one_error_line(code, out, err)
    prefix = f"cannot verify snapshot {snap}" if command == "snapshot-verify" else f"cannot load snapshot {snap}"
    assert err == f"error: {prefix}: snapshot state malformed: {reason}\n"


def test_redeem_below_a_loaded_supply(capsys, tmp_path):
    """A snapshot whose supply is below a holder's balance loads, as totals
    are not checked on load; the Redeem that would take the supply below
    zero then ends the resumed replay in one error line."""
    stream = tmp_path / "s.jsonl"
    write_events(str(stream), [
        make_event(1, 0, 0, "MarketListed", "DAI", initial_exchange_rate=Dec(1), initial_collateral_factor=Dec("0.5")),
        make_event(2, 0, 0, "Mint", "DAI", account=ACCT_A, amount_underlying=Dec(10), amount_ctokens=Dec(10)),
        make_event(3, 0, 0, "Redeem", "DAI", account=ACCT_A, amount_underlying=Dec(8), amount_ctokens=Dec(8)),
    ])
    snap = tmp_path / "mid.snap"
    assert main(["replay", "--events", str(stream), "--at-block", "2", "--snapshot-out", str(snap)]) == 0
    document = json.loads(snap.read_text())
    document["state"]["markets"]["DAI"]["total_ctoken_supply"] = "5"
    document["digest"] = dict_digest(document["state"])
    snap.write_text(json.dumps(document))
    capsys.readouterr()
    assert _run(capsys, ["snapshot", "verify", "--snapshot", str(snap)])[0] == 0
    code, out, err = _run(capsys, ["replay", "--events", str(stream), "--snapshot-in", str(snap)])
    _assert_one_error_line(code, out, err)
    assert err == "error: event 3:0:0: market 'DAI' ctoken supply would go negative\n"


@pytest.mark.parametrize("header,value,expected", [
    ("cursor", {"block": 99, "tx_index": 1, "log_index": 0}, "does not match the state's cursor"),
    ("format_version", True, "unsupported snapshot format version True"),
    ("format_version", 1.0, "unsupported snapshot format version 1.0"),
], ids=["cursor-block-99", "version-true", "version-1.0"])
@pytest.mark.parametrize("command", ["liquidable", "snapshot-load", "snapshot-verify"])
def test_bad_snapshot_header(capsys, tmp_path, command, header, value, expected):
    stream, snap = _edited_hand_snapshot(capsys, tmp_path, lambda document: document.update({header: value}))
    argv = [part.format(stream=stream, snap=snap) for part in _SNAPSHOT_COMMANDS[command]]
    code, out, err = _run(capsys, argv)
    _assert_one_error_line(code, out, err)
    assert expected in err


# Documents json.loads rejects with something other than a syntax error.
_UNREADABLE_DOCUMENTS = {
    "nested-100000-deep": b"[" * 100_000,
    "int-5000-digits": b'{"format_version": ' + b"1" * 5000 + b"}",
    "non-utf8-first-byte": b"\x80{}",
}


@pytest.mark.parametrize("document", sorted(_UNREADABLE_DOCUMENTS))
@pytest.mark.parametrize("command", sorted(_SNAPSHOT_COMMANDS) + ["gen-scenario-spec"])
def test_unreadable_document(capsys, tmp_path, command, document):
    stream = tmp_path / "hand.jsonl"
    write_events(str(stream), hand_fixture())
    path = tmp_path / "doc.json"
    path.write_bytes(_UNREADABLE_DOCUMENTS[document])
    if command == "gen-scenario-spec":
        argv = ["gen-scenario", "--spec", str(path), "--events-out", str(tmp_path / "s.jsonl"),
                "--annotations-out", str(tmp_path / "s.json")]
        reason = f"error: {path}: invalid JSON: "
    else:
        argv = [part.format(stream=stream, snap=path) for part in _SNAPSHOT_COMMANDS[command]]
        reason = "snapshot is not valid JSON: "
    code, out, err = _run(capsys, argv)
    _assert_one_error_line(code, out, err)
    assert reason in err


@pytest.mark.parametrize("name,reason", [
    ("missing.json", "No such file or directory"),
    ("spec.d", "Is a directory"),
], ids=["missing", "directory"])
def test_unreadable_spec(capsys, tmp_path, name, reason):
    (tmp_path / "spec.d").mkdir()
    spec = tmp_path / name
    argv = ["gen-scenario", "--spec", str(spec), "--events-out", str(tmp_path / "s.jsonl"),
            "--annotations-out", str(tmp_path / "s.json")]
    code, out, err = _run(capsys, argv)
    _assert_one_error_line(code, out, err)
    assert err == f"error: cannot read spec {spec}: {reason}\n"
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("command", sorted(_UNWRITABLE_OUTPUTS))
def test_unwritable_output(capsys, tmp_path, command):
    stream = tmp_path / "hand.jsonl"
    write_events(str(stream), hand_fixture())
    missing = tmp_path / "missing"
    argv = [part.format(stream=stream, tmp=tmp_path, missing=missing) for part in _UNWRITABLE_OUTPUTS[command]]
    code, out, err = _run(capsys, argv)
    _assert_one_error_line(code, out, err)
    assert str(missing) in err


def test_broken_pipe_exits_silently(capsys, monkeypatch, tmp_path):
    stream = tmp_path / "hand.jsonl"
    write_events(str(stream), hand_fixture())

    def closed_pipe(text):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout.write", closed_pipe)
    code = main(["replay", "--events", str(stream)])
    monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""
