"""Normalized protocol event streams: kinds, JSONL codec, ordering checks.

One event per line, flat JSON objects. Amounts, rates and factors are
decimal strings (see :mod:`plfkit.fixedpoint`); ordering is the triple
(block, tx_index, log_index) and must be strictly increasing within a
stream.

This module is also the package's JSON codec: the one reader
(``_parse_json``), the one canonical writer (``_encode_canonical``), and
``_encode_value``, which turns a document's values into plain JSON data.
"""

from __future__ import annotations

import gc
import json
import re
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .fixedpoint import MANTISSA_BOUND, SCALE, Dec, _new_dec, _parse_mantissa

_ADDRESS = re.compile("0x[0-9a-f]{40}")


def is_valid_address(text: object) -> bool:
    """42-character lowercase 0x-prefixed hex account identifier."""
    return isinstance(text, str) and len(text) == 42 and _ADDRESS.fullmatch(text) is not None


class EventParseError(ValueError):
    """A line failed schema validation; carries line number and field."""

    def __init__(self, message: str, *, line_number: int | None = None, field: str | None = None):
        prefix = ""
        if line_number is not None:
            prefix += f"line {line_number}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)
        self.line_number = line_number
        self.field = field


class StreamOrderError(ValueError):
    """Event keys are not strictly increasing."""


class OrderingKey(NamedTuple):
    """Total order over events: block, then tx index, then log index.

    A plain tuple, equal to and ordered as (block, tx_index, log_index).
    It checks nothing: a key read from outside the program is checked where
    it is read, by the event parser and by the snapshot decoder.
    """

    block: int
    tx_index: int
    log_index: int


class EventRecord(NamedTuple):
    """One normalized protocol event.

    ``market`` is the asset symbol the event is scoped to (the repay market
    for LiquidateBorrow, the priced/listed asset for PriceUpdate and
    MarketListed, None for NewCloseFactor). Payload holds the remaining
    kind-specific fields with amounts already parsed to Dec.
    """

    key: OrderingKey
    kind: str
    market: str | None
    payload: dict[str, Any]


# Field specs per kind: (name, checker). Checkers parse/validate a raw JSON
# value and return the normalized one, raising ValueError (or the
# ArithmeticError of an amount beyond the carrier) on bad input.


def _decimal(low: int, high: int, message: str) -> Callable[[object], Dec]:
    """The checker of a decimal string whose mantissa lies in [low, high];
    ``message`` is its error for a value outside, and its ``bounds`` are
    the three, for a Dec already built. It builds its Dec from the mantissa
    it has checked, in one frame per value."""

    def check(raw: object) -> Dec:
        if not isinstance(raw, str):
            raise ValueError("expected a decimal string")
        mantissa = _parse_mantissa(raw)
        if not low <= mantissa <= high:
            raise ValueError(message)
        value = _new_dec(Dec)
        value.mantissa = mantissa
        return value

    check.bounds = (low, high, message)
    return check


_dec_nonneg = _decimal(0, MANTISSA_BOUND, "amount must be non-negative")
_dec_positive = _decimal(1, MANTISSA_BOUND, "value must be positive")
_dec_fraction = _decimal(0, SCALE, "factor must lie in [0, 1]")
_dec_index = _decimal(SCALE, MANTISSA_BOUND, "index must be at least 1")
# Any value of the carrier: _parse_mantissa already refuses the rest.
_dec_any = _decimal(-MANTISSA_BOUND, MANTISSA_BOUND, "value must fit the signed 256-bit carrier")


def _account(raw: object) -> str:
    if not is_valid_address(raw):
        raise ValueError("expected a 42-character lowercase 0x hex address")
    return raw  # type: ignore[return-value]


def _symbol(raw: object) -> str:
    if not isinstance(raw, str) or not raw:
        raise ValueError("expected a non-empty asset symbol")
    return raw


def _model_id(raw: object) -> str:
    if not isinstance(raw, str) or not raw:
        raise ValueError("expected a non-empty model identifier")
    return raw


def _params_blob(raw: object) -> dict[str, Dec]:
    if not isinstance(raw, dict):
        raise ValueError("expected an object of decimal strings")
    return {str(k): _dec_any(v) for k, v in raw.items()}


# market_field: which top-level key scopes the event ("market", "asset",
# "repay_market" for liquidations, or None for global events).
_SCHEMAS: dict[str, tuple[str | None, tuple[tuple[str, Any], ...]]] = {
    "MarketListed": (
        "asset",
        (
            ("initial_exchange_rate", _dec_positive),
            ("initial_collateral_factor", _dec_fraction),
        ),
    ),
    "Mint": (
        "market",
        (
            ("account", _account),
            ("amount_underlying", _dec_nonneg),
            ("amount_ctokens", _dec_nonneg),
        ),
    ),
    "Redeem": (
        "market",
        (
            ("account", _account),
            ("amount_underlying", _dec_nonneg),
            ("amount_ctokens", _dec_nonneg),
        ),
    ),
    "Borrow": (
        "market",
        (
            ("account", _account),
            ("amount_underlying", _dec_nonneg),
        ),
    ),
    "RepayBorrow": (
        "market",
        (
            ("account", _account),
            ("payer", _account),
            ("amount_underlying", _dec_nonneg),
        ),
    ),
    "LiquidateBorrow": (
        "repay_market",
        (
            ("borrower", _account),
            ("liquidator", _account),
            ("repay_amount_underlying", _dec_nonneg),
            ("collateral_market", _symbol),
            ("seized_ctokens", _dec_nonneg),
        ),
    ),
    "AccrueInterest": (
        "market",
        (
            ("new_borrow_index", _dec_index),
            ("new_exchange_rate", _dec_positive),
            ("interest_accumulated_underlying", _dec_nonneg),
        ),
    ),
    "NewCollateralFactor": (
        "market",
        (("new_factor", _dec_fraction),),
    ),
    "NewInterestRateModel": (
        "market",
        (("model_id", _model_id),),
    ),
    "NewInterestParams": (
        "market",
        (("params_blob", _params_blob),),
    ),
    "NewCloseFactor": (
        None,
        (("new_close_factor", _dec_fraction),),
    ),
    "PriceUpdate": (
        "asset",
        (("price_usd", _dec_positive),),
    ),
}

KINDS = frozenset(_SCHEMAS)

_KEY_FIELDS = OrderingKey._fields

# The decoder's table: each kind's schema plus every key its lines must
# carry, and nothing else.
_DECODING = {
    kind: (
        market_field,
        fields,
        frozenset(_KEY_FIELDS + ("kind",) + ((market_field,) if market_field else ())
                  + tuple(name for name, _ in fields)),
    )
    for kind, (market_field, fields) in _SCHEMAS.items()
}

def parse_event_obj(obj: dict[str, Any], line_number: int | None = None) -> EventRecord:
    """Validate one flat JSON object against its kind's schema.

    Checks run in a fixed order and the first failure is reported: the
    ordering triple, the kind, unexpected keys, the scoping field, then the
    payload fields in schema order.
    """
    if not isinstance(obj, dict):
        raise EventParseError("event must be a JSON object", line_number=line_number)

    block, tx_index, log_index = obj.get("block"), obj.get("tx_index"), obj.get("log_index")
    if (type(block) is not int or type(tx_index) is not int or type(log_index) is not int
            or block < 0 or tx_index < 0 or log_index < 0):  # else three plain non-negative ints
        for name in _KEY_FIELDS:
            if name not in obj:
                raise EventParseError("missing ordering field", line_number=line_number, field=name)
            raw = obj[name]
            if not isinstance(raw, int) or isinstance(raw, bool) or raw < 0:
                raise EventParseError(
                    "must be a non-negative integer", line_number=line_number, field=name
                )
    key = OrderingKey(block, tx_index, log_index)

    kind = obj.get("kind")
    if kind is None:
        raise EventParseError("missing field", line_number=line_number, field="kind")
    spec = _DECODING.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise EventParseError(
            f"unknown event kind {kind!r}", line_number=line_number, field="kind"
        )
    market_field, fields, expected = spec

    if not expected.issuperset(obj):
        unexpected = sorted(set(obj) - expected)[0]
        raise EventParseError("unexpected field", line_number=line_number, field=unexpected)

    name = market_field
    try:
        market = None if market_field is None else _symbol(obj[market_field])
        payload: dict[str, Any] = {}
        for name, checker in fields:
            payload[name] = checker(obj[name])
    except KeyError:
        raise EventParseError("missing field", line_number=line_number, field=name) from None
    except (ValueError, ArithmeticError) as exc:
        raise EventParseError(str(exc), line_number=line_number, field=name) from None

    # The tuple itself, without the frame of the named tuple's __new__.
    return tuple.__new__(EventRecord, (key, kind, market, payload))


def _parse_json(text: str | bytes) -> Any:
    """Decode one JSON document: the package's only JSON text reader.

    Every failure is a ValueError carrying one line: a syntax error's
    message, or the text of the error for an integer beyond int()'s digit
    limit, nesting beyond the recursion limit, or bytes that are not UTF-8.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(exc.msg) from None
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(str(exc)) from None


def _encode_canonical(data: Any) -> bytes:
    """Canonical JSON bytes of plain data: sorted keys, compact, ASCII.

    The package's only JSON writer of digested or stored bytes: state
    digests, snapshots, annotations and event lines.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("ascii")


_scan_once = json.JSONDecoder().scan_once


def parse_event_line(line: str, line_number: int | None = None) -> EventRecord:
    """Parse one JSONL line into an EventRecord."""
    # The scanner json.loads runs, minus its wrappers. A line it does not
    # take whole (padding, any error) goes through the full reader, which
    # accepts it or reports the exact error.
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line):
        try:
            obj = _parse_json(line)
        except ValueError as exc:
            raise EventParseError(f"invalid JSON: {exc}", line_number=line_number) from None
    return parse_event_obj(obj, line_number=line_number)


def _encode_value(value: Any) -> Any:
    """Plain JSON data, with every Dec as its canonical string.

    Dicts, lists, tuples and dataclass instances (field by field, in
    declaration order) are walked; anything else is returned as it is.
    """
    if isinstance(value, Dec):
        return str(value)
    if isinstance(value, dict):
        return {k: _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    names = getattr(value, "__dataclass_fields__", None)  # a dataclass instance
    if names is not None:
        return {name: _encode_value(getattr(value, name)) for name in names}
    return value


def event_to_obj(event: EventRecord) -> dict[str, Any]:
    """Flatten an EventRecord back to its JSON object form."""
    obj: dict[str, Any] = event.key._asdict()
    obj["kind"] = event.kind
    market_field, _ = _SCHEMAS[event.kind]
    if market_field is not None:
        obj[market_field] = event.market
    for name, value in event.payload.items():
        obj[name] = _encode_value(value)
    return obj


def serialize_event(event: EventRecord) -> str:
    """Canonical single-line JSON for an event (sorted keys, compact)."""
    return _encode_canonical(event_to_obj(event)).decode("ascii")


# What a line may be padded with: JSON's whitespace, not str.strip()'s,
# which would also take NBSP, form feed or U+3000 off a malformed line.
_JSON_WHITESPACE = " \t\r\n"


def iter_events(path: str) -> Iterator[EventRecord]:
    """Stream events from a JSONL file, enforcing strict ordering.

    A line is read without its JSON whitespace padding; a blank line or a
    line that does not parse raises EventParseError at once. Every key
    must exceed the one before it; a violation does not stop the stream,
    but is raised as StreamOrderError once the whole file has parsed, so a
    parse error on any line takes precedence.
    """
    violation = None
    previous: tuple[int, ...] = ()  # sorts before every key
    line_number = 0
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for line_number, line in enumerate(handle, start=1):
                stripped = line.strip(_JSON_WHITESPACE)
                if not stripped:
                    raise EventParseError("blank line", line_number=line_number)
                event = parse_event_line(stripped, line_number=line_number)
                key = event.key
                if key <= previous and violation is None:
                    # No line is blank, so the event's index is its line's.
                    violation = f"event {line_number - 1} key {key} does not follow {previous}"
                previous = key
                yield event
        except UnicodeDecodeError as exc:
            # The file is decoded a chunk at a time, and the chunk that failed
            # starts at the line after the last one read.
            line_number += 1 + exc.object.count(b"\n", 0, exc.start)
            raise EventParseError(f"not UTF-8 text: {exc.reason}", line_number=line_number) from None
    if violation is not None:
        raise StreamOrderError(violation)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cycle collector for a stream read or a whole command.
    Neither builds reference cycles, so it has nothing to find; paused, it
    stops rescanning the growing list or state."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def read_events(path: str) -> list[EventRecord]:
    """Load a whole JSONL stream: the events of :func:`iter_events`."""
    with _collector_paused():
        return list(iter_events(path))


def write_events(path: str, events: Iterable[EventRecord]) -> int:
    """Write events as canonical JSONL; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for event in events:
            handle.write(serialize_event(event))
            handle.write("\n")
            count += 1
    return count
