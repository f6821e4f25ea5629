"""Byte-for-byte CLI outputs against a committed recording.

Every step runs one ``plfkit`` command in-process and records its exit
code, stdout, stderr and the SHA-256 of each file it writes. The steps
share one working directory and run in order: later steps read the
streams and snapshots earlier ones wrote, so resuming from a snapshot cut
at every block boundary is checked against the one-shot replay.

Rewrite the recording only when an output change is intended:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from plfkit.cli import main
from plfkit.events import write_events
from plfkit.fixedpoint import Dec
from plfkit.scenarios import (
    ConcentrationPlan,
    MarketSpec,
    PlannedLiquidation,
    PricePath,
    ScenarioSpec,
    default_spec,
    spec_to_dict,
)
from streams import hand_fixture, make_event

RECORDING = Path(__file__).parent / "golden" / "cli.json"

# Beyond every block of every stream below.
FAR_BLOCK = 10 ** 9


def scenario_specs() -> dict[str, ScenarioSpec]:
    """Generator specs beyond the default seed: both concentration sides
    and a 3-market stream with three planned liquidations."""
    supply_whale = default_spec(7, event_count=200)
    supply_whale.planned_concentration = ConcentrationPlan("supply", (Dec("0.274"),))
    borrow_whales = default_spec(3)
    borrow_whales.planned_concentration = ConcentrationPlan("borrow", (Dec("0.3"), Dec("0.2")))
    three_markets = ScenarioSpec(
        seed=11,
        markets=[
            MarketSpec("DAI", Dec("0.02"), Dec("0.75"), PricePath(Dec(1), max_step_bps=5)),
            MarketSpec("ETH", Dec("0.02"), Dec("0.7"), PricePath(Dec(2000), max_step_bps=25)),
            MarketSpec("BTC", Dec("0.02"), Dec("0.65"), PricePath(Dec(30000), max_step_bps=20)),
        ],
        accounts=10,
        event_count=600,
        planned_liquidations=[
            PlannedLiquidation("0x" + format(0xD0000 + i, "040x"), block, block + delay)
            for i, (block, delay) in enumerate([(100, 1), (200, 4), (300, 10)])
        ],
        checkpoint_count=6,
    )
    return {"supply1": supply_whale, "borrow2": borrow_whales, "multi3": three_markets}


def write_inputs(workdir: Path) -> None:
    """Streams the steps read, built from the shared test fixtures."""
    hand = hand_fixture()
    write_events(str(workdir / "hand.jsonl"), hand)
    # ETH is never priced before block 6, so B's collateral is unpriceable
    # at block 5.
    write_events(str(workdir / "noprice.jsonl"), hand[:4] + hand[5:])
    write_events(str(workdir / "overdraw.jsonl"), hand[:5] + [
        make_event(2, 0, 0, "Redeem", "DAI", account=hand[5].payload["account"],
                   amount_underlying=Dec(1), amount_ctokens=Dec(50)),
    ])
    write_events(str(workdir / "misordered.jsonl"), [hand[1], hand[0]] + hand[2:])
    (workdir / "badline.jsonl").write_text('{"block": 1}\n')
    for name, spec in scenario_specs().items():
        (workdir / f"{name}.spec.json").write_text(json.dumps(spec_to_dict(spec)))


def _blocks(events_path: Path) -> list[int]:
    with open(events_path, encoding="utf-8") as handle:
        return sorted({json.loads(line)["block"] for line in handle})


def _cuts(blocks: list[int]) -> list[int]:
    """Before the first block, both sides of every block boundary, beyond the last."""
    cuts = {0, blocks[-1] + 1, FAR_BLOCK}
    for block in blocks:
        cuts.update((block - 1, block))
    return sorted(cuts)


def _stream_steps(name: str, blocks: list[int], sample_cuts: list[int]) -> list[dict]:
    events = f"{name}.jsonl"
    steps = []

    def step(*argv: str, writes: tuple[str, ...] = ()) -> None:
        steps.append({"argv": list(argv), "writes": list(writes)})

    # Cut at every boundary; resume the full stream from each cut.
    for cut in _cuts(blocks):
        snap = f"{name}.cut{cut}.snap"
        step("replay", "--events", events, "--at-block", str(cut), "--snapshot-out", snap, writes=(snap,))
        step("replay", "--events", events, "--snapshot-in", snap)
    for cut in sample_cuts:
        snap = f"{name}.save{cut}.snap"
        step("snapshot", "save", "--events", events, "--at-block", str(cut), "--out-path", snap,
             writes=(snap,))
        step("snapshot", "load", "--snapshot", snap)
        step("snapshot", "verify", "--snapshot", snap, "--format", "json")
        step("replay", "--events", events, "--snapshot-in", snap, "--at-block", str(sample_cuts[-2]))
        for source in (("--events", events, "--at-block", str(cut)), ("--snapshot", snap)):
            step("liquidable", *source)
            step("sensitivity", *source, "--asset", "ETH", "--shocks", "0,0.1,0.35,0.6,0.9")
            step("concentration", *source, "--side", "supply", "--top", "3")
            step("concentration", *source, "--side", "borrow", "--format", "json")
        step("efficiency", "--events", events, "--at-block", str(cut))
        step("efficiency", "--events", events, "--at-block", str(cut), "--weighting", "count")

    snap = f"{name}.final.snap"
    step("replay", "--events", events)
    step("replay", "--events", events, "--format", "json", "--snapshot-out", snap, writes=(snap,))
    step("snapshot", "save", "--events", events, "--out-path", f"{name}.saved.snap",
         writes=(f"{name}.saved.snap",))
    step("liquidable", "--events", events, "--format", "json", "--out", f"{name}.liq.json",
         writes=(f"{name}.liq.json",))
    step("sensitivity", "--snapshot", snap, "--asset", "DAI", "--shocks", "0.5,0,0.25")
    step("sensitivity", "--snapshot", snap, "--asset", "XYZ", "--shocks", "0.1")
    step("efficiency", "--events", events)
    step("efficiency", "--events", events, "--full-reeval", "--format", "json")
    step("timeseries", "--events", events)
    step("timeseries", "--events", events, "--stride", "4", "--format", "json")
    return steps


def _error_steps() -> list[dict]:
    steps = []
    for stream in ("overdraw.jsonl", "misordered.jsonl", "badline.jsonl", "missing.jsonl"):
        for argv in (
            ("replay",),
            ("liquidable",),
            ("sensitivity", "--asset", "DAI", "--shocks", "0.1"),
            ("concentration", "--side", "supply"),
            ("efficiency",),
            ("timeseries",),
            ("snapshot", "save", "--out-path", "never.snap"),
        ):
            head, rest = (argv[:2], argv[2:]) if argv[0] == "snapshot" else (argv[:1], argv[1:])
            steps.append({"argv": [*head, "--events", stream, *rest], "writes": []})
    steps.append({"argv": ["liquidable", "--events", "noprice.jsonl", "--at-block", "5"], "writes": []})
    for snap in ("tampered.snap", "missing.snap"):
        for argv in (
            ("replay", "--events", "hand.jsonl", "--snapshot-in", snap),
            ("replay", "--events", "badline.jsonl", "--snapshot-in", snap),
            ("liquidable", "--snapshot", snap),
            ("snapshot", "load", "--snapshot", snap),
            ("snapshot", "verify", "--snapshot", snap),
        ):
            steps.append({"argv": list(argv), "writes": []})
    return steps


def _tamper(workdir: Path) -> None:
    text = (workdir / "hand.final.snap").read_text()
    (workdir / "tampered.snap").write_text(text.replace('"close_factor":"0.5"', '"close_factor":"0.6"'))


def run_step(argv: list[str], writes: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    for name in writes:
        with open(name, "rb") as handle:
            files[name] = hashlib.sha256(handle.read()).hexdigest()
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def run_all(workdir: Path) -> list[dict]:
    """Run every step in ``workdir``; returns one result per step."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        write_inputs(workdir)
        results = [run_step(["gen-scenario", "--seed", "7", "--events-out", "s7.jsonl",
                             "--annotations-out", "s7.ann.json"], ["s7.jsonl", "s7.ann.json"])]
        for name in scenario_specs():
            outputs = [f"{name}.jsonl", f"{name}.ann.json"]
            results.append(run_step(["gen-scenario", "--spec", f"{name}.spec.json", "--events-out",
                                     outputs[0], "--annotations-out", outputs[1]], outputs))
        hand_blocks, s7_blocks = _blocks(workdir / "hand.jsonl"), _blocks(workdir / "s7.jsonl")
        for step in _stream_steps("hand", hand_blocks, [0, 4, 11, 13, FAR_BLOCK]):
            results.append(run_step(step["argv"], step["writes"]))
        s7_sample = [0, s7_blocks[len(s7_blocks) // 3], s7_blocks[2 * len(s7_blocks) // 3], FAR_BLOCK]
        for step in _stream_steps("s7", s7_blocks, s7_sample):
            results.append(run_step(step["argv"], step["writes"]))
        _tamper(workdir)
        for step in _error_steps():
            results.append(run_step(step["argv"], step["writes"]))
        return results
    finally:
        os.chdir(previous)


def test_cli_outputs_match_recording(tmp_path):
    expected = json.loads(RECORDING.read_text(encoding="utf-8"))
    actual = run_all(tmp_path)
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    mismatched = [(a, e) for a, e in zip(actual, expected) if a != e]
    assert not mismatched, f"{len(mismatched)} steps differ; first: {mismatched[0]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        results = run_all(Path(scratch))
    RECORDING.parent.mkdir(exist_ok=True)
    RECORDING.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} steps to {RECORDING}", file=sys.stderr)
