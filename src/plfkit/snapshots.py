"""Checkpointing: canonical state snapshots with digest verification.

Snapshots are a single canonical JSON document (sorted keys, compact
separators, ASCII) so the same state saves to identical bytes on every
platform. The embedded digest covers the full canonical state including
the cursor; the state is the document's last member, written as the very
bytes that were digested. A load accepts the state only in the canonical
form ``state_to_dict`` writes, and only with values a stream can write
(``state_from_dict`` checks both), so the digest of the stored dict is the
digest of the state rebuilt from it; loads verify it before handing the
state back. This module is the file format alone.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from .events import OrderingKey, _encode_canonical, _parse_json
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


class SnapshotMeta(NamedTuple):
    """Header of a snapshot file."""

    format_version: int
    cursor: OrderingKey | None
    digest: str


def save_snapshot(state: GlobalState, path: str) -> SnapshotMeta:
    """Write the state to a byte-deterministic snapshot file."""
    body = state_bytes(state)
    digest = hashlib.sha256(body).hexdigest()
    cursor = None if state.cursor is None else state.cursor._asdict()
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


def read_snapshot(path: str) -> tuple[GlobalState, SnapshotMeta]:
    """Load a snapshot and its header: one read, one decode, one digest.

    The state must decode from its canonical form (state_from_dict, which
    accepts only states a stream can write); then the digest of the stored
    state must match the stored one, and the header cursor must equal the
    state's cursor.
    """
    document = _read_document(path)
    try:
        state = state_from_dict(document["state"])
    except (TypeError, ValueError, DecOverflowError) as exc:
        raise SnapshotError(f"snapshot state malformed: {exc}") from None
    # The decoder accepts only what state_to_dict writes, so this is
    # state_digest(state) without building the dict form again.
    actual = dict_digest(document["state"])
    if actual != document["digest"]:
        raise SnapshotDigestError(document["digest"], actual)
    cursor = None if state.cursor is None else state.cursor._asdict()
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
