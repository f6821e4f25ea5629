"""Checkpointing: canonical state snapshots with digest verification.

Snapshots are a single canonical JSON document (sorted keys, compact
separators, ASCII) so the same state saves to identical bytes on every
platform. The embedded digest covers the full canonical state including
the cursor; the state is the document's last member, written as the very
bytes that were digested. A load accepts the state only in the canonical
form ``state_to_dict`` writes, so the digest of the stored dict is the
digest of the state rebuilt from it; loads verify it before handing the
state back.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

from .events import OrderingKey, _encode_canonical, _parse_json
from .events import _dec_fraction, _dec_index, _dec_nonneg, _dec_positive
from .fixedpoint import DecOverflowError
from .model import GlobalState, dict_digest, state_bytes, state_from_dict

FORMAT_VERSION = 1


class SnapshotError(ValueError):
    """Snapshot file is unusable."""


class SnapshotVersionError(SnapshotError):
    def __init__(self, found: object):
        super().__init__(f"unsupported snapshot format version {found!r}; expected {FORMAT_VERSION}")
        self.found = found


class SnapshotDigestError(SnapshotError):
    def __init__(self, expected: str, actual: str):
        super().__init__(f"snapshot digest mismatch: stored {expected}, recomputed {actual}")
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True)
class SnapshotMeta:
    """Header of a snapshot file."""

    format_version: int
    cursor: OrderingKey | None
    digest: str


def save_snapshot(state: GlobalState, path: str) -> SnapshotMeta:
    """Write the state to a byte-deterministic snapshot file."""
    body = state_bytes(state)
    digest = hashlib.sha256(body).hexdigest()
    cursor = None if state.cursor is None else asdict(state.cursor)
    header = _encode_canonical({"format_version": FORMAT_VERSION, "cursor": cursor, "digest": digest})
    # The canonical document: "state" sorts after the header's keys, so its
    # bytes go last, in place of the header's closing brace.
    with open(path, "wb") as handle:
        handle.writelines((header[:-1], b',"state":', body, b"}"))
    return SnapshotMeta(format_version=FORMAT_VERSION, cursor=state.cursor, digest=digest)


def _read_document(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from None
    try:
        document = _parse_json(raw)
    except ValueError as exc:
        raise SnapshotError(f"snapshot is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SnapshotError("snapshot must be a JSON object")
    version = document.get("format_version")
    # The integer 1 only: True and 1.0 compare equal to it.
    if type(version) is not int or version != FORMAT_VERSION:
        raise SnapshotVersionError(version)
    for field in ("digest", "state"):
        if field not in document:
            raise SnapshotError(f"snapshot missing '{field}'")
    return document


# For each decimal of the params, a market or a position, the bounds of the
# checker that admits it from outside: (name, low, high, message). That is
# the event parser's, or the spec validator's for the liquidation incentive,
# which no event writes. A snapshot may hold only values an input can.
_PARAM_RANGES = tuple((name, *check.bounds) for name, check in (
    ("close_factor", _dec_fraction), ("liquidation_incentive", _dec_nonneg),
))
_MARKET_RANGES = tuple((name, *check.bounds) for name, check in (
    ("total_borrows", _dec_nonneg), ("total_ctoken_supply", _dec_nonneg), ("collateral_factor", _dec_fraction),
    ("borrow_index", _dec_index), ("exchange_rate", _dec_positive),
))
_POSITION_RANGES = tuple((name, *check.bounds) for name, check in (
    ("ctoken_balance", _dec_nonneg), ("borrow_principal", _dec_nonneg), ("borrow_index_snapshot", _dec_index),
))


def _malformed(message: str, *path: str) -> SnapshotError:
    where = "".join(f"[{part!r}]" for part in path)
    return SnapshotError(f"snapshot state malformed: state{where}: {message}")


def _check_ranges(state: GlobalState) -> None:
    """Each param, market, position and price value lies in its checker's range."""
    for name, low, high, message in _PARAM_RANGES:
        if not low <= getattr(state.params, name).mantissa <= high:
            raise _malformed(message, "params", name)
    for symbol, market in state.markets.items():
        for name, low, high, message in _MARKET_RANGES:
            if not low <= getattr(market, name).mantissa <= high:
                raise _malformed(message, "markets", symbol, name)
    for account, holdings in state.participants.items():
        for symbol, position in holdings.items():
            for name, low, high, message in _POSITION_RANGES:
                if not low <= getattr(position, name).mantissa <= high:
                    raise _malformed(message, "participants", account, symbol, name)
    low, high, message = _dec_positive.bounds
    for symbol, price in state.price_table.prices.items():
        if not low <= price.mantissa <= high:
            raise _malformed(message, "prices", symbol)


def read_snapshot(path: str) -> tuple[GlobalState, SnapshotMeta]:
    """Load a snapshot and its header: one read, one digest.

    The state must decode from its canonical form, with each market's
    asset symbol equal to its key and each value in its range; then the
    digest of the stored state must match the stored one, and the header
    cursor must equal the state's cursor.
    """
    document = _read_document(path)
    try:
        state = state_from_dict(document["state"])
    except (TypeError, ValueError, DecOverflowError) as exc:
        raise SnapshotError(f"snapshot state malformed: {exc}") from None
    # Valuations price a market by its key; its asset must name the same.
    for symbol, market in state.markets.items():
        if market.asset.symbol != symbol:
            raise SnapshotError(
                f"snapshot state malformed: state['markets'][{symbol!r}]['asset']['symbol'] "
                f"must be the market's key {symbol!r}, not {market.asset.symbol!r}"
            )
    _check_ranges(state)
    # The decoder accepts only what state_to_dict writes, so this is
    # state_digest(state) without building the dict form again.
    actual = dict_digest(document["state"])
    if actual != document["digest"]:
        raise SnapshotDigestError(document["digest"], actual)
    cursor = None if state.cursor is None else asdict(state.cursor)
    header = document.get("cursor", "(missing)")
    # Compared as JSON text: 13.0 and true are not the integers 13 and 1.
    if _encode_canonical(header) != _encode_canonical(cursor):
        raise SnapshotError(f"snapshot header cursor {header!r} does not match the state's cursor {cursor!r}")
    return state, SnapshotMeta(format_version=FORMAT_VERSION, cursor=state.cursor, digest=actual)


def load_snapshot(path: str) -> GlobalState:
    """Load a snapshot, verifying its digest against the stored state."""
    return read_snapshot(path)[0]


def verify_snapshot(path: str) -> SnapshotMeta:
    """Check integrity without returning the state."""
    return read_snapshot(path)[1]
