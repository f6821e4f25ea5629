import csv
import json

import pytest

from plfkit.cli import main
from plfkit.engine import replay
from plfkit.events import write_events
from plfkit.fixedpoint import Dec
from plfkit.model import GlobalState
from streams import (
    ACCT_A,
    cdf_profile_stream,
    hand_fixture,
    make_event,
    sensitivity_stream,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-streams")
    paths = {}
    for name, events in (
        ("hand", hand_fixture()),
        ("sensitivity", sensitivity_stream()),
        ("cdf", cdf_profile_stream()),
    ):
        path = tmp / f"{name}.jsonl"
        write_events(str(path), events)
        paths[name] = str(path)
    empty = tmp / "empty.jsonl"
    empty.write_text("")
    paths["empty"] = str(empty)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out: str) -> list[dict[str, str]]:
    lines = out.splitlines()
    reader = csv.reader(lines)
    header = next(reader)
    return [dict(zip(header, row)) for row in reader]


class TestReplay:
    def test_reports_digest_and_cursor(self, capsys, files):
        code, out, err = run(capsys, "replay", "--events", files["hand"])
        assert code == 0
        assert err == ""
        rows = rows_of(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["events_applied"] == "20"
        assert (row["final_block"], row["final_tx_index"], row["final_log_index"]) == ("13", "1", "0")
        expected = replay(GlobalState.fresh(), hand_fixture())[1].digest
        assert row["digest"] == expected

    def test_json_format(self, capsys, files):
        code, out, _ = run(capsys, "replay", "--events", files["hand"], "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["events_applied"] == 20
        assert payload[0]["final_block"] == 13

    def test_at_block_prefix(self, capsys, files):
        code, out, _ = run(capsys, "replay", "--events", files["hand"], "--at-block", "4")
        assert code == 0
        row = rows_of(out)[0]
        assert row["events_applied"] == "10"
        assert row["final_block"] == "4"

    def test_empty_stream_is_fine(self, capsys, files):
        code, out, _ = run(capsys, "replay", "--events", files["empty"])
        assert code == 0
        row = rows_of(out)[0]
        assert row["events_applied"] == "0"
        assert row["final_block"] == ""
        assert len(row["digest"]) == 64

    def test_snapshot_resume_matches_one_shot(self, capsys, files, tmp_path):
        snap = str(tmp_path / "mid.snap")
        code, _, _ = run(capsys, "snapshot", "save", "--events", files["hand"],
                         "--at-block", "11", "--out-path", snap)
        assert code == 0
        code, out, _ = run(capsys, "replay", "--events", files["hand"],
                           "--snapshot-in", snap)
        assert code == 0
        resumed = rows_of(out)[0]
        assert resumed["events_applied"] == "3"  # blocks 12 and 13
        one_shot = replay(GlobalState.fresh(), hand_fixture())[1].digest
        assert resumed["digest"] == one_shot

    def test_snapshot_out_round_trips(self, capsys, files, tmp_path):
        snap = str(tmp_path / "final.snap")
        code, out, _ = run(capsys, "replay", "--events", files["hand"],
                           "--snapshot-out", snap)
        assert code == 0
        digest = rows_of(out)[0]["digest"]
        code, out, _ = run(capsys, "snapshot", "verify", "--snapshot", snap)
        assert code == 0
        assert rows_of(out)[0]["digest"] == digest

    def test_out_of_order_stream_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        events = hand_fixture()
        write_events(str(path), [events[1], events[0]] + events[2:])
        code, out, err = run(capsys, "replay", "--events", str(path))
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "replay", "--events", str(tmp_path / "nope.jsonl"))
        assert code == 1
        assert "error:" in err


_MINT_LINE = {"block": 1, "tx_index": 0, "log_index": 0, "kind": "Mint", "market": "DAI",
              "account": ACCT_A, "amount_underlying": "10", "amount_ctokens": "500"}

# Malformed streams that once crashed the CLI with a traceback or parsed.
_BAD_LINES = {
    "list-kind": ({**_MINT_LINE, "kind": []}, "field 'kind': unknown event kind []"),
    "object-kind": ({**_MINT_LINE, "kind": {}}, "field 'kind': unknown event kind {}"),
    "amount-beyond-carrier": ({**_MINT_LINE, "amount_underlying": "1" + "0" * 80},
                              "field 'amount_underlying': mantissa exceeds the signed 256-bit carrier"),
    "full-width-digits": ({**_MINT_LINE, "amount_underlying": "\uff10.\uff15"},
                          "field 'amount_underlying': not a decimal literal: '\uff10.\uff15'"),
    "trailing-newline": ({**_MINT_LINE, "amount_underlying": "0.5\n"},
                         "field 'amount_underlying': not a decimal literal: '0.5\\n'"),
}

_EVENTS_COMMANDS = [
    ("replay",),
    ("liquidable",),
    ("sensitivity", "--asset", "DAI", "--shocks", "0.1"),
    ("efficiency",),
    ("concentration", "--side", "supply"),
    ("timeseries",),
]


class TestMalformedStreams:
    def test_bytes_that_are_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        code, out, err = run(capsys, "replay", "--events", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: line 1: not UTF-8 text: invalid start byte\n"

    @pytest.mark.parametrize("case", sorted(_BAD_LINES))
    @pytest.mark.parametrize("command", _EVENTS_COMMANDS, ids=lambda c: c[0])
    def test_error_line_and_exit_1(self, capsys, tmp_path, case, command):
        obj, detail = _BAD_LINES[case]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        code, out, err = run(capsys, command[0], "--events", str(path), *command[1:])
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: line 1: {detail}\n"


def _write_lines(path, objs) -> str:
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    return str(path)


_DAI_LISTED = {"block": 1, "tx_index": 0, "log_index": 0, "kind": "MarketListed", "asset": "DAI",
               "initial_exchange_rate": "1", "initial_collateral_factor": "0.5"}


def _redeem_line(block: int, ctokens: str) -> dict:
    return {"block": block, "tx_index": 0, "log_index": 0, "kind": "Redeem", "market": "DAI",
            "account": ACCT_A, "amount_underlying": ctokens, "amount_ctokens": ctokens}


class TestValuationOverflow:
    """A state that replays cleanly but whose valuation leaves the carrier."""

    @pytest.fixture
    def stream(self, tmp_path):
        huge = "9" * 57
        return _write_lines(tmp_path / "huge.jsonl", [
            _DAI_LISTED,
            {"block": 2, "tx_index": 0, "log_index": 0, "kind": "PriceUpdate", "asset": "DAI",
             "price_usd": huge},
            {"block": 3, "tx_index": 0, "log_index": 0, "kind": "Mint", "market": "DAI",
             "account": ACCT_A, "amount_underlying": huge, "amount_ctokens": huge},
        ])

    def test_replay_succeeds(self, capsys, stream):
        code, _, err = run(capsys, "replay", "--events", stream)
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("command", [
        ("liquidable",),
        ("sensitivity", "--asset", "DAI", "--shocks", "0,0.5"),
        ("concentration", "--side", "supply"),
        ("efficiency",),
        ("timeseries",),
    ], ids=lambda c: c[0])
    def test_valuation_ends_in_error_line(self, capsys, stream, command):
        code, out, err = run(capsys, command[0], "--events", stream, *command[1:])
        assert code == 1
        assert out == ""
        assert err == "error: mantissa exceeds the signed 256-bit carrier\n"


class TestInvalidTransition:
    @pytest.mark.parametrize("command", ["replay", "efficiency", "timeseries"])
    def test_overdrawn_redeem_ends_in_error_line(self, capsys, tmp_path, command):
        stream = _write_lines(tmp_path / "overdraw.jsonl", [_DAI_LISTED, _redeem_line(2, "5")])
        code, out, err = run(capsys, command, "--events", stream)
        assert code == 1
        assert out == ""
        assert err == f"error: event 2:0:0: redeem of 5 ctokens exceeds balance 0 for {ACCT_A}\n"

    @pytest.mark.parametrize("command", ["replay", "efficiency", "timeseries"])
    def test_zero_redeem_without_position_is_applied(self, capsys, tmp_path, command):
        stream = _write_lines(tmp_path / "zero.jsonl", [_DAI_LISTED, _redeem_line(2, "0")])
        code, _, err = run(capsys, command, "--events", stream)
        assert code == 0
        assert err == ""


class TestLiquidable:
    def test_underwater_account_row(self, capsys, files):
        code, out, err = run(capsys, "liquidable", "--events", files["hand"],
                             "--at-block", "10")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 1
        assert rows[0] == {
            "account": ACCT_A,
            "collateral_power_usd": "189.375",
            "borrow_value_usd": "200",
            "surplus_usd": "-10.625",
            "collateral_value_usd": "313.1",
            "ratio": "0.946875",
        }

    def test_healthy_book_prints_header_only(self, capsys, files):
        code, out, _ = run(capsys, "liquidable", "--events", files["hand"])
        assert code == 0
        assert out.splitlines() == [
            "account,collateral_power_usd,borrow_value_usd,surplus_usd,"
            "collateral_value_usd,ratio"
        ]

    def test_snapshot_source(self, capsys, files, tmp_path):
        snap = str(tmp_path / "b10.snap")
        run(capsys, "snapshot", "save", "--events", files["hand"],
            "--at-block", "10", "--out-path", snap)
        code, out, _ = run(capsys, "liquidable", "--snapshot", snap)
        assert code == 0
        assert rows_of(out)[0]["account"] == ACCT_A

    def test_events_and_snapshot_are_exclusive(self, capsys, files):
        code, _, _ = run(capsys, "liquidable", "--events", files["hand"],
                         "--snapshot", "whatever.snap")
        assert code == 2


class TestSensitivity:
    def test_shock_ladder(self, capsys, files):
        code, out, _ = run(capsys, "sensitivity", "--events", files["sensitivity"],
                           "--asset", "SHK", "--shocks", "0,0.01,0.03,0.05")
        assert code == 0
        rows = rows_of(out)
        assert [r["liquidable_accounts"] for r in rows] == ["0", "1", "2", "3"]
        assert [r["liquidable_collateral_usd"] for r in rows] == [
            "0", "132.66", "261.9", "389.5",
        ]

    def test_shock_out_of_range_is_usage_error(self, capsys, files):
        code, _, _ = run(capsys, "sensitivity", "--events", files["sensitivity"],
                         "--asset", "SHK", "--shocks", "0.5,1.0")
        assert code == 2

    def test_unknown_asset_is_domain_error(self, capsys, files):
        code, _, err = run(capsys, "sensitivity", "--events", files["sensitivity"],
                           "--asset", "XYZ", "--shocks", "0.1")
        assert code == 1
        assert "no market listed" in err


class TestEfficiency:
    def test_value_weighted_cdf(self, capsys, files):
        code, out, _ = run(capsys, "efficiency", "--events", files["cdf"])
        assert code == 0
        rows = rows_of(out)
        assert [(r["blocks"], r["cumulative_fraction"]) for r in rows] == [
            ("0", "0.6"), ("2", "0.85"), ("16", "0.95"), ("30", "1"),
        ]

    def test_count_weighted_cdf(self, capsys, files):
        code, out, _ = run(capsys, "efficiency", "--events", files["cdf"],
                           "--weighting", "count")
        rows = rows_of(out)
        assert [r["cumulative_fraction"] for r in rows] == ["0.25", "0.5", "0.75", "1"]

    def test_full_reeval_agrees(self, capsys, files):
        _, fast, _ = run(capsys, "efficiency", "--events", files["cdf"])
        _, slow, _ = run(capsys, "efficiency", "--events", files["cdf"], "--full-reeval")
        assert fast == slow

    def test_engine_warnings_are_printed(self, capsys, files, tmp_path):
        events = hand_fixture()
        mint = events[5]
        events[5] = make_event(2, 0, 0, "Mint", "DAI", account=mint.payload["account"],
                               amount_underlying=Dec(11), amount_ctokens=Dec(500))
        path = str(tmp_path / "drift.jsonl")
        write_events(path, events)
        _, _, replay_err = run(capsys, "replay", "--events", path)
        assert replay_err == (
            "warning: event 2:0:0: mint amounts disagree with exchange rate 0.02: "
            "underlying 11 vs 500 ctokens\n"
        )
        code, out, err = run(capsys, "efficiency", "--events", path)
        assert (code, err) == (0, replay_err)
        assert out == run(capsys, "efficiency", "--events", files["hand"])[1]
        # The drifted Mint moves the same cTokens, so the table is unchanged.
        code, out, err = run(capsys, "timeseries", "--events", path)
        assert (code, err) == (0, replay_err)
        assert out == run(capsys, "timeseries", "--events", files["hand"])[1]


class TestConcentration:
    def test_supply_ranking_and_summary(self, capsys, files):
        code, out, err = run(capsys, "concentration", "--events", files["hand"],
                             "--side", "supply", "--top", "1")
        assert code == 0
        rows = rows_of(out)
        assert rows[0]["rank"] == "1"
        assert rows[0]["account"] != ACCT_A  # the other account holds more
        assert "side=supply" in err and "top1_share=" in err

    @pytest.mark.parametrize("top, keys", [
        ("1", ["side", "total_usd", "top1_share"]),
        ("2", ["side", "total_usd", "top1_share", "top2_share"]),
    ])
    def test_summary_names_each_share_once(self, capsys, files, top, keys):
        code, _, err = run(capsys, "concentration", "--events", files["hand"],
                           "--side", "supply", "--top", top)
        assert code == 0
        assert [field.split("=")[0] for field in err.split()] == keys

    def test_borrow_side(self, capsys, files):
        code, out, _ = run(capsys, "concentration", "--events", files["hand"],
                           "--side", "borrow", "--top", "2")
        assert code == 0
        assert len(rows_of(out)) == 2  # both accounts ranked

    def test_top_must_be_positive(self, capsys, files):
        code, _, _ = run(capsys, "concentration", "--events", files["hand"],
                         "--side", "supply", "--top", "0")
        assert code == 2


class TestTimeseries:
    def test_stride_five(self, capsys, files):
        code, out, _ = run(capsys, "timeseries", "--events", files["hand"],
                           "--stride", "5")
        assert code == 0
        rows = rows_of(out)
        assert [r["block"] for r in rows] == ["1", "6", "11", "13"]
        assert rows[-1] == {
            "block": "13",
            "supplied_usd": "3040.1",
            "borrowed_usd": "210",
            "locked_usd": "2830.1",
        }


class TestLeverage:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "leverage", "--alpha", "100", "--delta", "2",
                           "--rounds", "2")
        assert code == 0
        row = rows_of(out)[0]
        assert row["total_collateral"] == "175"
        assert row["total_debt"] == "75"
        assert row["max_exposure"] == "200"
        assert row["premium"] == "0"

    def test_premium_applies(self, capsys):
        _, out, _ = run(capsys, "leverage", "--alpha", "100", "--delta", "2",
                        "--rounds", "2", "--premium", "0.1")
        assert rows_of(out)[0]["total_debt"] == "82.5"

    def test_exact_output(self, capsys):
        argv = ("leverage", "--alpha", "100", "--delta", "2", "--rounds", "2", "--premium", "0.1")
        assert run(capsys, *argv) == (
            0,
            "alpha,delta,rounds,premium,total_collateral,total_debt,max_exposure\n"
            "100,2,2,0.1,175,82.5,200\n",
            "",
        )
        assert run(capsys, *argv, "--format", "json") == (
            0,
            "[\n"
            "  {\n"
            '    "alpha": "100",\n'
            '    "delta": "2",\n'
            '    "rounds": 2,\n'
            '    "premium": "0.1",\n'
            '    "total_collateral": "175",\n'
            '    "total_debt": "82.5",\n'
            '    "max_exposure": "200"\n'
            "  }\n"
            "]\n",
            "",
        )

    def test_delta_must_exceed_one(self, capsys):
        code, _, _ = run(capsys, "leverage", "--alpha", "100", "--delta", "1",
                         "--rounds", "2")
        assert code == 2

    def test_negative_alpha_rejected(self, capsys):
        code, _, _ = run(capsys, "leverage", "--alpha", "-1", "--delta", "2",
                         "--rounds", "2")
        assert code == 2

    @pytest.mark.parametrize("alpha", ["1" + "0" * 80, "\uff11", "1\n"])
    def test_alpha_outside_decimal_grammar_is_usage_error(self, capsys, alpha):
        code, out, err = run(capsys, "leverage", "--alpha", alpha, "--delta", "2",
                             "--rounds", "2")
        assert code == 2
        assert out == ""
        assert "--alpha" in err


class TestGenScenario:
    def test_seeded_generation(self, capsys, tmp_path):
        events_out = str(tmp_path / "gen.jsonl")
        ann_out = str(tmp_path / "gen.json")
        code, out, _ = run(capsys, "gen-scenario", "--seed", "3",
                           "--event-count", "120",
                           "--events-out", events_out,
                           "--annotations-out", ann_out)
        assert code == 0
        row = rows_of(out)[0]
        assert row["event_count"] == "120"
        with open(ann_out, "r", encoding="ascii") as handle:
            annotation = json.load(handle)
        assert annotation["seed"] == 3

    def test_exact_json_output(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen-scenario", "--seed", "3", "--event-count", "120",
                             "--format", "json",
                             "--events-out", str(tmp_path / "gen.jsonl"),
                             "--annotations-out", str(tmp_path / "gen.json"))
        assert (code, err) == (0, "")
        assert out.replace(str(tmp_path), "TMP") == (
            "[\n"
            "  {\n"
            '    "events_path": "TMP/gen.jsonl",\n'
            '    "annotations_path": "TMP/gen.json",\n'
            '    "event_count": 120,\n'
            '    "final_block": 88\n'
            "  }\n"
            "]\n"
        )

    def test_spec_file_with_seed_override(self, capsys, tmp_path):
        from plfkit.scenarios import default_spec, spec_to_dict

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_dict(default_spec(4, event_count=120))))
        code, _, _ = run(capsys, "gen-scenario", "--spec", str(spec_path),
                         "--seed", "9",
                         "--events-out", str(tmp_path / "o.jsonl"),
                         "--annotations-out", str(tmp_path / "o.json"))
        assert code == 0
        with open(tmp_path / "o.json", "r", encoding="ascii") as handle:
            assert json.load(handle)["seed"] == 9

    def test_malformed_spec_is_one_error_line(self, capsys, tmp_path):
        from plfkit.scenarios import default_spec, spec_to_dict

        data = spec_to_dict(default_spec(7, event_count=200))
        data["seed"] = "7"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        code, out, err = run(capsys, "gen-scenario", "--spec", str(spec_path),
                             "--events-out", str(tmp_path / "o.jsonl"),
                             "--annotations-out", str(tmp_path / "o.json"))
        assert code == 1
        assert out == ""
        assert err == "error: seed must be an integer, not '7'\n"
        assert not (tmp_path / "o.jsonl").exists()

    def test_requires_spec_or_seed(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen-scenario",
                           "--events-out", str(tmp_path / "o.jsonl"),
                           "--annotations-out", str(tmp_path / "o.json"))
        assert code == 1
        assert "either --spec or --seed" in err


class TestSnapshotCommands:
    def test_load_reports_contents(self, capsys, files, tmp_path):
        snap = str(tmp_path / "s.snap")
        run(capsys, "snapshot", "save", "--events", files["hand"], "--out-path", snap)
        code, out, err = run(capsys, "snapshot", "load", "--snapshot", snap)
        assert code == 0
        assert "markets=2 participants=2" in err
        row = rows_of(out)[0]
        assert row["path"] == snap
        assert row["format_version"] == "1"

    def test_verify_detects_corruption(self, capsys, files, tmp_path):
        snap = tmp_path / "s.snap"
        run(capsys, "snapshot", "save", "--events", files["hand"],
            "--out-path", str(snap))
        document = json.loads(snap.read_text())
        document["state"]["params"]["close_factor"] = "0.25"
        snap.write_text(json.dumps(document))
        code, _, err = run(capsys, "snapshot", "verify", "--snapshot", str(snap))
        assert code == 1
        assert "digest mismatch" in err


class TestCommonBehavior:
    @pytest.mark.parametrize("command", [
        ("liquidable",),
        ("sensitivity", "--asset", "ETH", "--shocks", "0.1"),
        ("concentration", "--side", "supply"),
    ], ids=lambda command: command[0])
    def test_at_block_with_snapshot_is_usage_error(self, capsys, files, tmp_path, command):
        # A snapshot is a state at its own cursor: there is no stream to cut.
        snap = str(tmp_path / "end.snap")
        run(capsys, "snapshot", "save", "--events", files["hand"], "--out-path", snap)
        code, out, err = run(capsys, *command, "--snapshot", snap, "--at-block", "5")
        assert (code, out) == (2, "")
        assert "--at-block" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (("sensitivity", "--asset", "SHK", "--shocks", "0,,0.1"), "argument --shocks: empty shock entry"),
        (("replay", "--at-block", "x"), "argument --at-block: not an integer: 'x'"),
        (("replay", "--at-block", "-1"), "argument --at-block: value must not be negative"),
    ], ids=["empty-shock", "at-block-x", "at-block-negative"])
    def test_bad_argument_is_usage_error(self, capsys, files, argv, message):
        code, out, err = run(capsys, argv[0], "--events", files["sensitivity"], *argv[1:])
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err

    def test_out_file_instead_of_stdout(self, capsys, files, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "replay", "--events", files["hand"],
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("events_applied,")

    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("plfkit ")
