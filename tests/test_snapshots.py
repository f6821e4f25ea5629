import hashlib
import json
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plfkit import cli, engine, model, snapshots
from plfkit.cli import main
from plfkit.engine import replay, state_digest
from plfkit.events import OrderingKey, _encode_canonical, write_events
from plfkit.model import GlobalState, state_from_dict, state_to_dict
from plfkit.snapshots import (
    FORMAT_VERSION,
    SnapshotDigestError,
    SnapshotError,
    SnapshotVersionError,
    load_snapshot,
    read_snapshot,
    save_snapshot,
    verify_snapshot,
)
from streams import hand_fixture
from test_analytics import UNIT, books, draw_write, generated_stream


@pytest.fixture
def replayed_state():
    state, _ = replay(GlobalState.fresh(), hand_fixture())
    return state


class TestRoundTrip:
    def test_load_restores_identical_state(self, replayed_state, tmp_path):
        path = str(tmp_path / "state.snap")
        meta = save_snapshot(replayed_state, path)
        loaded = load_snapshot(path)
        assert state_digest(loaded) == state_digest(replayed_state)
        assert loaded.cursor == OrderingKey(13, 1, 0)
        assert meta.format_version == FORMAT_VERSION
        assert meta.digest == state_digest(replayed_state)

    def test_fresh_state_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.snap")
        save_snapshot(GlobalState.fresh(), path)
        assert load_snapshot(path).cursor is None

    def test_files_are_byte_deterministic(self, replayed_state, tmp_path):
        one, two = str(tmp_path / "a.snap"), str(tmp_path / "b.snap")
        save_snapshot(replayed_state, one)
        save_snapshot(replayed_state.copy(), two)
        with open(one, "rb") as f1, open(two, "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_equals_one_shot(self, tmp_path):
        events = hand_fixture()
        one_shot = replay(GlobalState.fresh(), events)[1].digest

        state = GlobalState.fresh()
        replay(state, events[:12])
        path = str(tmp_path / "mid.snap")
        save_snapshot(state, path)

        resumed = load_snapshot(path)
        _, report = replay(resumed, events[12:])
        assert report.digest == one_shot

    def test_verify_reports_meta_without_state(self, replayed_state, tmp_path):
        path = str(tmp_path / "state.snap")
        save_snapshot(replayed_state, path)
        meta = verify_snapshot(path)
        assert meta.cursor == replayed_state.cursor
        assert meta.digest == state_digest(replayed_state)


class TestCorruption:
    def test_flipped_digit_is_detected(self, replayed_state, tmp_path):
        path = str(tmp_path / "state.snap")
        save_snapshot(replayed_state, path)
        with open(path, "r", encoding="ascii") as handle:
            document = json.load(handle)
        balance = document["state"]["markets"]["DAI"]["total_borrows"]
        document["state"]["markets"]["DAI"]["total_borrows"] = balance[:-1] + (
            "1" if balance[-1] != "1" else "2"
        )
        with open(path, "w", encoding="ascii") as handle:
            json.dump(document, handle)
        with pytest.raises(SnapshotDigestError) as excinfo:
            load_snapshot(path)
        assert excinfo.value.expected != excinfo.value.actual

    def test_unknown_version_rejected(self, replayed_state, tmp_path):
        path = str(tmp_path / "state.snap")
        save_snapshot(replayed_state, path)
        with open(path, "r", encoding="ascii") as handle:
            document = json.load(handle)
        document["format_version"] = 99
        with open(path, "w", encoding="ascii") as handle:
            json.dump(document, handle)
        with pytest.raises(SnapshotVersionError) as excinfo:
            load_snapshot(path)
        assert excinfo.value.found == 99

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_must_be_the_integer_one(self, replayed_state, tmp_path, version):
        path = tmp_path / "state.snap"
        save_snapshot(replayed_state, str(path))
        document = json.loads(path.read_text())
        document["format_version"] = version
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotVersionError) as excinfo:
            load_snapshot(str(path))
        assert excinfo.value.found == version

    @pytest.mark.parametrize("header", [
        {"block": 99, "tx_index": 1, "log_index": 0},
        {"block": 13, "tx_index": 1, "log_index": 0, "extra": 1},
        {"block": 13.0, "tx_index": 1, "log_index": 0},
        {"block": 13, "tx_index": True, "log_index": 0},
        None,
        "missing",
    ], ids=["block-99", "extra-key", "float-block", "bool-index", "null", "missing"])
    def test_header_cursor_must_match_state(self, replayed_state, tmp_path, header):
        path = tmp_path / "state.snap"
        save_snapshot(replayed_state, str(path))
        document = json.loads(path.read_text())
        if header == "missing":
            del document["cursor"]
        else:
            document["cursor"] = header
        path.write_text(json.dumps(document))
        for read in (load_snapshot, verify_snapshot):
            with pytest.raises(SnapshotError, match="header cursor"):
                read(str(path))

    def test_fresh_state_header_cursor_must_be_null(self, tmp_path):
        path = tmp_path / "empty.snap"
        save_snapshot(GlobalState.fresh(), str(path))
        document = json.loads(path.read_text())
        document["cursor"] = {"block": 1, "tx_index": 0, "log_index": 0}
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="header cursor"):
            load_snapshot(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.snap"
        path.write_bytes(b"\x00\x01not json")
        with pytest.raises(SnapshotError, match="not valid JSON"):
            load_snapshot(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(str(tmp_path / "absent.snap"))

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "partial.snap"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION, "digest": "x"}))
        with pytest.raises(SnapshotError, match="missing 'state'"):
            load_snapshot(str(path))

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.snap"
        path.write_text("[1,2,3]")
        with pytest.raises(SnapshotError, match="JSON object"):
            load_snapshot(str(path))

    def test_malformed_state_payload(self, tmp_path):
        path = tmp_path / "bad-state.snap"
        path.write_text(json.dumps({
            "format_version": FORMAT_VERSION,
            "digest": "0" * 64,
            "state": {"cursor": None},
        }))
        with pytest.raises(SnapshotError, match="malformed"):
            load_snapshot(str(path))


class TestWorkDoneOnce:
    """Each snapshot command reads the file once and computes one digest;
    a read digests the stored dict form and never builds it again."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counted(name, *modules):
            original = getattr(modules[0], name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            # Every module that binds the name, so indirect calls count too.
            for module in modules:
                monkeypatch.setattr(module, name, wrapper)

        counted("_read_document", snapshots)
        counted("state_from_dict", snapshots, model)
        counted("state_to_dict", model)
        counted("state_bytes", snapshots, model, engine)
        counted("dict_digest", snapshots, model)
        counted("state_digest", engine, cli)
        return counts

    @pytest.fixture
    def snap(self, replayed_state, tmp_path):
        path = str(tmp_path / "state.snap")
        save_snapshot(replayed_state, path)
        return path

    @pytest.mark.parametrize("command", ["load", "verify"])
    def test_cli_reads_and_digests_once(self, snap, calls, capsys, command):
        assert main(["snapshot", command, "--snapshot", snap]) == 0
        assert calls == {"_read_document": 1, "state_from_dict": 1, "dict_digest": 1}

    def test_save_builds_the_dict_form_once(self, replayed_state, tmp_path, calls):
        meta = save_snapshot(replayed_state, str(tmp_path / "again.snap"))
        assert calls == {"state_bytes": 1, "state_to_dict": 1}
        assert meta.digest == state_digest(replayed_state)

    @pytest.mark.parametrize("resume", [False, True], ids=["one-shot", "snapshot-in"])
    def test_replay_to_snapshot_builds_and_encodes_the_dict_form_once(
        self, calls, monkeypatch, tmp_path, capsys, resume
    ):
        """The digest replay prints is the saved document's: the state is
        encoded once, by the save, and never digested apart from it."""
        encoded = Counter()
        encode = snapshots._encode_canonical

        def counting(data):
            # The state's dict form, alone or inside a whole document.
            if isinstance(data, dict) and ("participants" in data or "state" in data):
                encoded["state"] += 1
            return encode(data)

        for module in (model, snapshots):
            monkeypatch.setattr(module, "_encode_canonical", counting)
        stream = tmp_path / "hand.jsonl"
        write_events(str(stream), hand_fixture())
        argv = ["replay", "--events", str(stream)]
        if resume:
            mid = str(tmp_path / "mid.snap")
            assert main(argv + ["--at-block", "6", "--snapshot-out", mid]) == 0
            argv += ["--snapshot-in", mid]
            calls.clear()
            encoded.clear()
            capsys.readouterr()
        snap = str(tmp_path / "end.snap")
        assert main(argv + ["--snapshot-out", snap, "--format", "json"]) == 0
        if resume:
            # The load reads and digests the stored dict form, which it
            # encodes once; the save then encodes the end state once.
            assert calls == {"_read_document": 1, "state_from_dict": 1, "dict_digest": 1,
                             "state_bytes": 1, "state_to_dict": 1}
            assert encoded == {"state": 2}
        else:
            assert calls == {"state_bytes": 1, "state_to_dict": 1}
            assert encoded == {"state": 1}
        digest = state_digest(replay(GlobalState.fresh(), hand_fixture())[0])
        assert json.loads(capsys.readouterr().out)[0]["digest"] == verify_snapshot(snap).digest == digest

    def test_stored_digest_still_checked(self, snap, calls):
        with open(snap) as handle:
            document = json.load(handle)
        document["digest"] = "0" * 64
        with open(snap, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(SnapshotDigestError):
            read_snapshot(snap)
        assert calls == {"_read_document": 1, "state_from_dict": 1, "dict_digest": 1}

    def test_read_returns_state_and_meta(self, snap, replayed_state):
        state, meta = read_snapshot(snap)
        assert meta == verify_snapshot(snap)
        assert meta.digest == state_digest(state) == state_digest(replayed_state)
        assert meta.cursor == state.cursor == replayed_state.cursor


# -- Canonical form ---------------------------------------------------------------


def drawn_state(data) -> GlobalState:
    """A state from a generated stream's prefix or a hand-built book, then
    copied and written to directly, extreme values included."""
    if data.draw(st.booleans()):
        events = generated_stream(data.draw(st.integers(0, 2 ** 32)), data.draw(st.integers(40, 200)), 4)
        state, _ = replay(GlobalState.fresh(), events[: data.draw(st.integers(0, len(events)))])
    else:
        state = data.draw(books())
    for _ in range(data.draw(st.integers(0, 3))):
        step = data.draw(st.sampled_from(("copy", "write", "extreme-write")))
        if step == "copy":
            state = state.copy()
        elif state.markets:
            draw_write(data, state, extreme=step == "extreme-write")(state)
    return state


def objects(document: dict) -> list[tuple[dict, str, bool]]:
    """(holder, key, whether its keys are fixed) for the state and every
    object within it."""
    state = document["state"]
    found = [(document, "state", True), (state, "params", True), (state, "markets", False),
             (state, "participants", False), (state, "prices", False)]
    if state["cursor"] is not None:
        found.append((state, "cursor", True))
    for symbol, market in state["markets"].items():
        found += [(state["markets"], symbol, True), (market, "asset", True), (market, "interest_model", True),
                  (market["interest_model"], "params", False)]
    for account, holdings in state["participants"].items():
        found.append((state["participants"], account, False))
        found += [(holdings, symbol, True) for symbol in holdings]
    return found


def decimals(state: dict) -> list[tuple[dict, str]]:
    """(holder, key) for every decimal literal in a state's dict form."""
    holders = [state["params"], state["prices"]]
    for market in state["markets"].values():
        holders += [market, market["interest_model"]["params"]]
    for holdings in state["participants"].values():
        holders += holdings.values()
    return [(holder, key) for holder in holders for key, value in holder.items() if isinstance(value, str)]


def in_stream_ranges(state: GlobalState) -> bool:
    """Whether every value lies in a range a stream can write: amounts
    non-negative, indices at least 1, rates and prices positive, the close
    factor and collateral factors in [0, 1], and every account holding at
    least one position. Stated apart from the package's checkers."""
    params = 0 <= state.params.close_factor.mantissa <= UNIT
    markets = all(
        m.total_borrows.mantissa >= 0 and m.total_ctoken_supply.mantissa >= 0
        and 0 <= m.collateral_factor.mantissa <= UNIT and m.borrow_index.mantissa >= UNIT
        and m.exchange_rate.mantissa > 0
        for m in state.markets.values()
    )
    positions = all(
        p.ctoken_balance.mantissa >= 0 and p.borrow_principal.mantissa >= 0 and p.borrow_index_snapshot.mantissa >= UNIT
        for holdings in state.participants.values()
        for p in holdings.values()
    )
    accounts = all(state.participants.values())
    prices = all(p.mantissa > 0 for p in state.price_table.prices.values())
    return params and markets and positions and accounts and prices


# Canonical literals just outside each range, by the fields it covers.
OUT_OF_RANGE = {
    ("total_borrows", "total_ctoken_supply", "ctoken_balance", "borrow_principal", "liquidation_incentive"):
        ("-0.000000000000000001", "-5"),
    ("borrow_index", "borrow_index_snapshot"): ("0.999999999999999999", "0", "-1"),
    ("exchange_rate", "price"): ("0", "-1"),
    ("collateral_factor", "close_factor"): ("1.000000000000000001", "1.5", "-0.000000000000000001"),
}


# Spellings that Dec() reads but Dec.__str__ never writes, or that Dec()
# does not read at all.
NON_CANONICAL = ("0.50", "+1", "01", "-0", "1.", ".5", "1e3")


class TestCanonicalForm:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_decoding_round_trips(self, data):
        state = drawn_state(data)
        form = state_to_dict(state)
        with tempfile.TemporaryDirectory() as tmp:
            save_snapshot(state, f"{tmp}/s.snap")
            if in_stream_ranges(state):
                assert _encode_canonical(state_to_dict(state_from_dict(form))) == _encode_canonical(form)
                assert read_snapshot(f"{tmp}/s.snap")[1].digest == state_digest(state)
            else:  # a direct write left a value no stream can write
                with pytest.raises(ValueError, match="^state\\["):
                    state_from_dict(form)
                with pytest.raises(SnapshotError, match="snapshot state malformed: state\\["):
                    read_snapshot(f"{tmp}/s.snap")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_non_canonical_state_is_refused(self, data):
        """A respelled decimal, an extra key or a list in place of an object
        is malformed whether or not the digest was recomputed."""
        state = drawn_state(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/s.snap"
            save_snapshot(state, path)
            with open(path) as handle:
                document = json.load(handle)
            mutation = data.draw(st.sampled_from(NON_CANONICAL + ("same-value", "extra-key", "list")))
            if mutation == "extra-key":
                holder, key, _ = data.draw(st.sampled_from([o for o in objects(document) if o[2]]))
                holder[key]["extra"] = "1"
            elif mutation == "list":
                holder, key, _ = data.draw(st.sampled_from(objects(document)))
                holder[key] = []
            else:
                holder, key = data.draw(st.sampled_from(decimals(document["state"])))
                if mutation == "same-value":  # trailing zero: the value as it was
                    mutation = holder[key] + ("0" if "." in holder[key] else ".0")
                holder[key] = mutation
            if data.draw(st.booleans()):
                document["digest"] = hashlib.sha256(_encode_canonical(document["state"])).hexdigest()
            with open(path, "w") as handle:
                json.dump(document, handle)
            with pytest.raises(SnapshotError, match="snapshot state malformed"):
                read_snapshot(path)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_out_of_range_value_is_refused(self, data):
        """A value outside the range a stream can write fails the load with
        its path named, though the digest was recomputed."""
        events = generated_stream(data.draw(st.integers(0, 2 ** 32)), data.draw(st.integers(40, 200)), 4)
        state, _ = replay(GlobalState.fresh(), events[: data.draw(st.integers(1, len(events)))])
        assert in_stream_ranges(state)
        form = state_to_dict(state)
        fields = [(("params", name), name, form["params"]) for name in form["params"]]
        fields += [(("prices", symbol), "price", form["prices"]) for symbol in form["prices"]]
        for symbol, market in form["markets"].items():
            fields += [(("markets", symbol, name), name, market) for name in market if isinstance(market[name], str)]
        for account, holdings in form["participants"].items():
            fields += [
                (("participants", account, symbol, name), name, position)
                for symbol, position in holdings.items()
                for name in position
            ]
        path, name, holder = data.draw(st.sampled_from(fields))
        holder[path[-1]] = data.draw(st.sampled_from(next(v for k, v in OUT_OF_RANGE.items() if name in k)))
        where = "state" + "".join(f"[{part!r}]" for part in path)
        with tempfile.TemporaryDirectory() as tmp:
            snap = f"{tmp}/s.snap"
            with open(snap, "w") as handle:
                json.dump({"format_version": FORMAT_VERSION, "cursor": form["cursor"],
                           "digest": hashlib.sha256(_encode_canonical(form)).hexdigest(), "state": form}, handle)
            with pytest.raises(SnapshotError, match=f"^snapshot state malformed: {re.escape(where)}: "):
                read_snapshot(snap)

    def test_respelled_close_factor_is_refused(self, replayed_state, tmp_path):
        """The same value spelled otherwise is another document: "0.50" for
        "0.5" fails the load with or without a recomputed digest."""
        path = tmp_path / "state.snap"
        save_snapshot(replayed_state, str(path))
        document = json.loads(path.read_text())
        assert document["state"]["params"]["close_factor"] == "0.5"
        document["state"]["params"]["close_factor"] = "0.50"
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="not a canonical decimal literal: '0.50'"):
            verify_snapshot(str(path))
