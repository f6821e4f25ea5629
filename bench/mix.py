"""Each workload's command mix and the check of every command's output.

A mix is a list of ``plfkit`` argument vectors, run one after another.
Commands write their table to a file with ``--out``; each command's check
reads that file (and the command's standard error) and returns ``None``
or a one-line reason. Checks compare against the planted ground truth of
:mod:`inputs`, and against digests seen earlier in the run: a one-shot
replay, a replay resumed from a mid-stream snapshot, and both snapshot
commands must all report the same digest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os
from dataclasses import dataclass
from typing import Callable

from inputs import SHOCKS, S, dec, fmt

# End-to-end metric each command's wall time feeds; None for commands that
# only prepare a later one (the prefix replay that writes the mid snapshot).
COMMAND_METRICS = (
    "gen_scenario_s",
    "replay_events_per_s",
    "resume_s",
    "snapshot_load_s",
    "snapshot_verify_s",
    "liquidable_s",
    "sensitivity_s",
    "concentration_s",
    "efficiency_s",
    "timeseries_s",
)


@dataclass
class Command:
    metric: str | None
    argv: list[str]
    out: str
    check: Callable[["Result"], str | None]

    def clear_output(self) -> None:
        """Remove the previous run's table, so a stale file cannot pass a check."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)


@dataclass
class Result:
    returncode: int
    stderr: str
    rows: list[list[str]]  # the --out CSV, header first


def read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))
    except OSError:
        return []


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Mix:
    """Builds one workload's commands; keeps what checks compare across commands."""

    def __init__(self, work: str, truth: dict, reference: dict):
        self.work = work
        self.truth = truth
        self.reference = reference  # run-wide: digests and generated-file hashes seen first

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _cmd(self, metric: str | None, name: str, argv: list[str], check) -> Command:
        out = self.path(f"out-{name}.csv")
        return Command(metric, argv + ["--out", out], out, check)

    def _same(self, key: str, value: str, what: str) -> str | None:
        expected = self.reference.setdefault(key, value)
        return None if value == expected else f"{what} {value} differs from {expected}"

    # -- checks --------------------------------------------------------------

    def _replay_row(self, result: Result, events: int, what: str, key: str) -> str | None:
        if len(result.rows) != 2:
            return f"{what}: expected one row, got {result.rows}"
        applied, block, tx, log, digest = result.rows[1]
        if int(applied) != events:
            return f"{what}: applied {applied} events, expected {events}"
        if key == "full" and [int(block), int(tx), int(log)] != self.truth["last_key"]:
            return f"{what}: final cursor {block}:{tx}:{log}, expected {self.truth['last_key']}"
        return self._same(f"digest:{key}", digest, f"{what} digest")

    def _snapshot_row(self, result: Result, what: str) -> str | None:
        if len(result.rows) != 2:
            return f"{what}: expected one row, got {result.rows}"
        row = result.rows[1]
        if [int(x) for x in row[2:5]] != self.truth["last_key"]:
            return f"{what}: cursor {row[2:5]}, expected {self.truth['last_key']}"
        return self._same("digest:full", row[5], f"{what} digest")

    def _check_gen(self, result: Result) -> str | None:
        events, annotations = self.path("gen.jsonl"), self.path("gen.ann.json")
        if len(result.rows) != 2:
            return f"gen-scenario: expected one row, got {result.rows}"
        with open(events, "rb") as handle:
            lines = handle.read().count(b"\n")
        if int(result.rows[1][2]) != lines:
            return "gen-scenario: reported event count disagrees with the file"
        return self._same("gen", sha256_file(events) + sha256_file(annotations), "gen-scenario output hash")

    def _check_liquidable(self, expected: list[str]) -> Callable[[Result], str | None]:
        def check(result: Result) -> str | None:
            found = [row[0] for row in result.rows[1:]]
            if found != sorted(expected):
                return f"liquidable: found {len(found)} accounts, expected {len(expected)}"
            return None

        return check

    def _check_sensitivity(self, result: Result) -> str | None:
        rows = result.rows[1:]
        if [row[0] for row in rows] != [fmt(dec(s)) for s in SHOCKS]:
            return f"sensitivity: shocks {[row[0] for row in rows]}"
        counts = [int(row[1]) for row in rows]
        if any(b < a for a, b in zip(counts, counts[1:])):
            return f"sensitivity: counts decrease {counts}"
        if counts[0] != len(self.truth["liquidable"]):
            return f"sensitivity: shock 0 gives {counts[0]}, liquidable set has {len(self.truth['liquidable'])}"
        return None

    def _check_concentration(self, result: Result) -> str | None:
        rows = result.rows[1:]
        if [int(row[0]) for row in rows] != list(range(1, len(rows) + 1)):
            return "concentration: ranks are not 1..n"
        if len(rows) != self.truth["participants"]:
            return f"concentration: {len(rows)} rows for {self.truth['participants']} participants"
        values = [dec(row[2]) for row in rows]
        if any(b > a for a, b in zip(values, values[1:])):
            return "concentration: values not in descending order"
        share_sum = sum(dec(row[3]) for row in rows)
        if sum(values) and not S - len(rows) <= share_sum <= S:
            return f"concentration: shares sum to {fmt(share_sum)}"
        if "total_usd=" + fmt(sum(values)) not in result.stderr:
            return "concentration: stderr total disagrees with the rows"
        if "borrow_top10" in self.truth:
            if fmt(sum(values)) != self.truth["borrow_total_usd"]:
                return f"concentration: total {fmt(sum(values))}, expected {self.truth['borrow_total_usd']}"
            if [row[1] for row in rows[:10]] != self.truth["borrow_top10"]:
                return "concentration: top 10 accounts differ from the planted ranking"
        return None

    def _check_efficiency(self, weighting: str) -> Callable[[Result], str | None]:
        def check(result: Result) -> str | None:
            found = [[int(row[0]), row[1]] for row in result.rows[1:]]
            if found != self.truth["efficiency"][weighting]:
                return f"efficiency ({weighting}): CDF {found} != {self.truth['efficiency'][weighting]}"
            return None

        return check

    def _check_timeseries(self, result: Result) -> str | None:
        truth = self.truth
        first, last, stride = truth["first_block"], truth["last_key"][0], truth["timeseries_stride"]
        blocks = list(range(first, last + 1, stride))
        if blocks[-1] != last:
            blocks.append(last)
        rows = result.rows[1:]
        if [int(row[0]) for row in rows] != blocks:
            return f"timeseries: {len(rows)} rows, expected {len(blocks)} sample blocks"
        for row in rows:
            if dec(row[3]) != dec(row[1]) - dec(row[2]):
                return f"timeseries: locked != supplied - borrowed at block {row[0]}"
        if "supplied_usd" in truth and rows[-1][1:3] != [truth["supplied_usd"], truth["borrowed_usd"]]:
            return f"timeseries: final totals {rows[-1][1:3]} differ from the planted market totals"
        return None

    def _check_load(self, result: Result) -> str | None:
        if f"participants={self.truth['participants']}" not in result.stderr:
            return f"snapshot load: expected participants={self.truth['participants']} on stderr"
        return self._snapshot_row(result, "snapshot load")

    # -- the mix -------------------------------------------------------------

    def commands(self, quick: frozenset[str] = frozenset(), repeats: int = 1) -> list[Command]:
        """The mix; commands feeding a metric in ``quick`` run ``repeats`` times in a row."""
        t = self.truth
        stream, tail = self.path("stream.jsonl"), self.path("tail.jsonl")
        mid, end = self.path("mid.snap"), self.path("end.snap")
        cmds = [
            self._cmd("gen_scenario_s", "gen", [
                "gen-scenario", "--spec", self.path("gen.spec.json"),
                "--events-out", self.path("gen.jsonl"), "--annotations-out", self.path("gen.ann.json"),
            ], self._check_gen),
            self._cmd("replay_events_per_s", "replay", ["replay", "--events", stream],
                      lambda r: self._replay_row(r, t["events"], "replay", "full")),
            self._cmd(None, "split", ["replay", "--events", stream, "--at-block", str(t["mid_block"]),
                                      "--snapshot-out", mid],
                      lambda r: self._replay_row(r, t["prefix_events"], "split replay", "mid")),
            self._cmd("resume_s", "resume", ["replay", "--snapshot-in", mid, "--events", tail,
                                             "--snapshot-out", end],
                      lambda r: self._replay_row(r, t["tail_events"], "resumed replay", "full")),
            self._cmd("snapshot_load_s", "load", ["snapshot", "load", "--snapshot", end], self._check_load),
            self._cmd("snapshot_verify_s", "verify", ["snapshot", "verify", "--snapshot", end],
                      lambda r: self._snapshot_row(r, "snapshot verify")),
        ]
        if "checkpoints" in t:
            for i, (block, expected) in enumerate(t["checkpoints"]):
                cmds.append(self._cmd("liquidable_s", f"liquidable{i}", [
                    "liquidable", "--events", stream, "--at-block", str(block)],
                    self._check_liquidable(expected)))
        else:
            source = ["--events", stream] if t["liquidable_from"] == "events" else ["--snapshot", end]
            cmds.append(self._cmd("liquidable_s", "liquidable", ["liquidable", *source],
                                  self._check_liquidable(t["liquidable"])))
        cmds += [
            self._cmd("sensitivity_s", "sensitivity", [
                "sensitivity", "--snapshot", end, "--asset", t["sensitivity_asset"], "--shocks", ",".join(SHOCKS)],
                self._check_sensitivity),
            self._cmd("concentration_s", "concentration", [
                "concentration", "--snapshot", end, "--side", "borrow", "--top", "10"],
                self._check_concentration),
        ]
        at_block = [] if t["efficiency_at_block"] is None else ["--at-block", str(t["efficiency_at_block"])]
        for weighting in ("value", "count"):
            cmds.append(self._cmd("efficiency_s", f"efficiency-{weighting}", [
                "efficiency", "--events", stream, *at_block, "--weighting", weighting],
                self._check_efficiency(weighting)))
        cmds.append(self._cmd("timeseries_s", "timeseries", [
            "timeseries", "--events", stream, "--stride", str(t["timeseries_stride"])],
            self._check_timeseries))
        return [c for c in cmds for _ in range(repeats if c.metric in quick else 1)]


def check(command: Command, result: Result) -> str | None:
    """Why this command failed, or None when its output is correct."""
    if result.returncode != 0:
        return f"exit {result.returncode}: {result.stderr.strip()[-200:]}"
    if "error:" in result.stderr or "warning:" in result.stderr:
        return f"unexpected diagnostics: {result.stderr.strip()[-200:]}"
    try:
        return command.check(result)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        return f"unreadable output: {exc!r}"
