import json
from collections import Counter

import pytest

from plfkit import snapshots
from plfkit.cli import main
from plfkit.engine import replay, state_digest
from plfkit.events import OrderingKey
from plfkit.model import GlobalState
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
    """Each snapshot command reads the file once and computes one digest."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counted(name):
            original = getattr(snapshots, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(snapshots, name, wrapper)

        for name in ("_read_document", "state_digest", "state_to_dict", "state_from_dict"):
            counted(name)
        return counts

    @pytest.fixture
    def snap(self, replayed_state, tmp_path):
        path = str(tmp_path / "state.snap")
        save_snapshot(replayed_state, path)
        return path

    @pytest.mark.parametrize("command", ["load", "verify"])
    def test_cli_reads_and_digests_once(self, snap, calls, capsys, command):
        assert main(["snapshot", command, "--snapshot", snap]) == 0
        assert calls == {"_read_document": 1, "state_from_dict": 1, "state_digest": 1}

    def test_save_builds_the_dict_form_once(self, replayed_state, tmp_path, calls):
        meta = save_snapshot(replayed_state, str(tmp_path / "again.snap"))
        assert calls == {"state_to_dict": 1}
        assert meta.digest == state_digest(replayed_state)

    def test_stored_digest_still_checked(self, snap, calls):
        with open(snap) as handle:
            document = json.load(handle)
        document["digest"] = "0" * 64
        with open(snap, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(SnapshotDigestError):
            read_snapshot(snap)
        assert calls["state_digest"] == 1

    def test_read_returns_state_and_meta(self, snap, replayed_state):
        state, meta = read_snapshot(snap)
        assert meta == verify_snapshot(snap)
        assert meta.digest == state_digest(state) == state_digest(replayed_state)
        assert meta.cursor == state.cursor == replayed_state.cursor
