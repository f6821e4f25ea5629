"""Command-line front door.

Each subcommand is a thin adapter over one library operation: load state
from an event stream or a snapshot, call the operation, format rows as
CSV or JSON. A table's columns are the named fields of the library record
it prints, in the order given by its column tuple, which is the only place
that schema is written. No balance arithmetic happens here. Diagnostics
and replay warnings go to standard error; only the requested table goes to
the chosen output.

Exit codes: 0 success, 1 domain or evaluation error, 2 usage error. main()
alone turns a library error into its one ``error: ...`` line, so the
modules whose errors it catches (engine, events, fixedpoint, model,
snapshots) are imported here; each command imports the analytics, risk,
leverage or generator code it calls, so a command loads only what it runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import dropwhile
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from . import __version__
from .engine import ReplayReport, TransitionError, _fold, state_digest
from .events import (
    EventParseError,
    EventRecord,
    StreamOrderError,
    _collector_paused,
    _parse_json,
    iter_events,
)
from .fixedpoint import ONE, ZERO, Dec, DecOverflowError, DecParseError
from .model import GlobalState, MissingPriceError
from .snapshots import SnapshotError, load_snapshot, read_snapshot, save_snapshot, verify_snapshot


T = TypeVar("T")


class CliError(Exception):
    """Domain failure surfaced with exit code 1."""


# -- Flag value parsers (argparse type callbacks; failures exit 2) ------------


def _dec_arg(text: str) -> Dec:
    try:
        return Dec(text)
    except (DecParseError, DecOverflowError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_dec_arg(text: str) -> Dec:
    value = _dec_arg(text)
    if value.is_negative():
        raise argparse.ArgumentTypeError("value must not be negative")
    return value


def _delta_arg(text: str) -> Dec:
    value = _dec_arg(text)
    if value <= ONE:
        raise argparse.ArgumentTypeError("delta must exceed 1")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("value must not be negative")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _shock_list(text: str) -> list[Dec]:
    shocks = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise argparse.ArgumentTypeError("empty shock entry")
        value = _dec_arg(piece)
        if value.is_negative() or value >= ONE:
            raise argparse.ArgumentTypeError(f"shock {piece} outside [0, 1)")
        shocks.append(value)
    return shocks


# -- State loading and output formatting --------------------------------------


def _events(path: str, at_block: int | None) -> Iterator[EventRecord]:
    """The stream's events with block <= at_block (all if None), read to
    the end of the file; a reader error becomes the command's error."""
    try:
        for event in iter_events(path):
            if at_block is None or event.key.block <= at_block:
                yield event
    except OSError as exc:
        raise CliError(f"cannot read events from {path}: {exc.strerror or exc}") from None
    except (EventParseError, StreamOrderError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _fold_stream(
    path: str,
    fold: Callable[[GlobalState, Iterator[EventRecord]], T],
    at_block: int | None = None,
    start: Callable[[], GlobalState] = GlobalState.fresh,
) -> T:
    """fold(state, events) in one pass over the stream at path, from the
    state start() returns; events at or before its cursor are skipped.

    No event list is held, and the whole file is always read: fold reads
    its events to the end, as engine._fold does, and _events reads past the
    --at-block cut. When start(), fold or a valuation inside it fails, the
    rest of the stream is read before the failure propagates, so that the
    stream's own errors win: a malformed line anywhere, then a key-order
    violation, then a snapshot error, then a transition or valuation error.
    """
    stream = _events(path, at_block)
    with _collector_paused():
        try:
            state = start()
            cursor = state.cursor
            events = stream if cursor is None else dropwhile(lambda event: event.key <= cursor, stream)
            return fold(state, events)
        except Exception:
            for _ in stream:
                pass
            raise


def _load_snapshot(path: str) -> GlobalState:
    try:
        return load_snapshot(path)
    except SnapshotError as exc:
        raise CliError(f"cannot load snapshot {path}: {exc}") from None


def _print_warnings(warnings: Iterable[str]) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _apply_all(state: GlobalState, events: Iterable[EventRecord]) -> tuple[GlobalState, ReplayReport]:
    """Apply the events in place, printing their warnings; no digest."""
    report = ReplayReport()
    _fold(state, events, report)
    _print_warnings(report.warnings)
    return state, report


def _state_from_args(args: argparse.Namespace) -> GlobalState:
    if args.snapshot:
        return _load_snapshot(args.snapshot)
    return _fold_stream(args.events, _apply_all, args.at_block)[0]


def _write_rows(args: argparse.Namespace, columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a table whose rows are cells in column order.

    A Dec cell is written as its canonical string; None is an empty CSV
    cell and a JSON null.
    """
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        payload = [{c: str(v) if isinstance(v, Dec) else v for c, v in zip(columns, row)} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_records(args: argparse.Namespace, columns: Sequence[str], records: Iterable[Any]) -> None:
    """Write a table whose columns are the named fields of each record."""
    _write_rows(args, columns, ([getattr(record, c) for c in columns] for record in records))


# -- Subcommand bodies ---------------------------------------------------------


def _cursor_cells(cursor) -> tuple[Any, Any, Any]:
    return (None, None, None) if cursor is None else cursor


def cmd_replay(args: argparse.Namespace) -> int:
    start = (lambda: _load_snapshot(args.snapshot_in)) if args.snapshot_in else GlobalState.fresh
    state, report = _fold_stream(args.events, _apply_all, args.at_block, start)
    # A saved state's digest is the hash of the bytes just written.
    digest = save_snapshot(state, args.snapshot_out).digest if args.snapshot_out else state_digest(state)
    _write_rows(
        args,
        ("events_applied", "final_block", "final_tx_index", "final_log_index", "digest"),
        [(report.events_applied, *_cursor_cells(state.cursor), digest)],
    )
    return 0


def cmd_liquidable(args: argparse.Namespace) -> int:
    from .risk import liquidable_accounts

    unhealthy = liquidable_accounts(_state_from_args(args))
    columns = (
        "account",
        "collateral_power_usd",
        "borrow_value_usd",
        "surplus_usd",
        "collateral_value_usd",
        "ratio",
    )
    rows = [(account, *(getattr(health, c) for c in columns[1:])) for account, health in unhealthy.items()]
    _write_rows(args, columns, rows)
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    from .risk import price_sensitivity

    state = _state_from_args(args)
    if args.asset not in state.markets:
        raise CliError(f"no market listed for asset {args.asset!r}")
    _write_records(
        args,
        ("shock", "liquidable_accounts", "liquidable_collateral_usd"),
        price_sensitivity(state, args.asset, args.shocks),
    )
    return 0


def cmd_efficiency(args: argparse.Namespace) -> int:
    from .analytics import efficiency_cdf, track_efficiency

    timeline = _fold_stream(
        args.events,
        lambda state, events: track_efficiency(state, events, full_reeval=args.full_reeval),
        args.at_block,
    )
    _print_warnings(timeline.warnings)
    _write_records(args, ("blocks", "cumulative_fraction"), efficiency_cdf(timeline, weighting=args.weighting))
    return 0


def cmd_concentration(args: argparse.Namespace) -> int:
    from .analytics import concentration

    report = concentration(_state_from_args(args), args.side, args.top)
    summary = f"side={report.side} total_usd={report.total_usd} top1_share={report.top1_share}"
    if report.top_n > 1:
        summary += f" top{report.top_n}_share={report.topn_share}"
    print(summary, file=sys.stderr)
    _write_records(args, ("rank", "account", "value_usd", "share"), report.rows)
    return 0


def cmd_timeseries(args: argparse.Namespace) -> int:
    from .analytics import funds_time_series

    rows, warnings = _fold_stream(
        args.events, lambda state, events: funds_time_series(state, events, stride=args.stride)
    )
    _print_warnings(warnings)
    _write_records(args, ("block", "supplied_usd", "borrowed_usd", "locked_usd"), rows)
    return 0


def cmd_leverage(args: argparse.Namespace) -> int:
    from .leverage import quote

    _write_records(
        args,
        ("alpha", "delta", "rounds", "premium", "total_collateral", "total_debt", "max_exposure"),
        [quote(args.alpha, args.delta, args.rounds, args.premium)],
    )
    return 0


def cmd_gen_scenario(args: argparse.Namespace) -> int:
    from .scenarios import GenerationError, default_spec, generate, spec_from_dict

    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                raw = _parse_json(handle.read())
        except OSError as exc:
            raise CliError(f"cannot read spec {args.spec}: {exc.strerror or exc}") from None
        except ValueError as exc:  # also the UnicodeDecodeError of read()
            raise CliError(f"{args.spec}: invalid JSON: {exc}") from None
        try:
            spec = spec_from_dict(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{args.spec}: bad scenario spec: {exc}") from None
        if args.seed is not None:
            spec.seed = args.seed
    else:
        if args.seed is None:
            raise CliError("either --spec or --seed is required")
        spec = default_spec(args.seed, event_count=args.event_count, accounts=args.accounts)
    try:
        result = generate(spec, args.events_out, args.annotations_out)
    except GenerationError as exc:
        raise CliError(str(exc)) from None
    _write_records(args, ("events_path", "annotations_path", "event_count", "final_block"), [result])
    return 0


def _snapshot_row(args: argparse.Namespace, path: str, meta) -> None:
    _write_rows(
        args,
        ("path", "format_version", "final_block", "final_tx_index", "final_log_index", "digest"),
        [(path, meta.format_version, *_cursor_cells(meta.cursor), meta.digest)],
    )


def cmd_snapshot_save(args: argparse.Namespace) -> int:
    state, _ = _fold_stream(args.events, _apply_all, args.at_block)
    meta = save_snapshot(state, args.out_path)
    _snapshot_row(args, args.out_path, meta)
    return 0


def cmd_snapshot_load(args: argparse.Namespace) -> int:
    try:
        state, meta = read_snapshot(args.snapshot)
    except SnapshotError as exc:
        raise CliError(f"cannot load snapshot {args.snapshot}: {exc}") from None
    print(
        f"markets={len(state.markets)} participants={len(state.participants)}",
        file=sys.stderr,
    )
    _snapshot_row(args, args.snapshot, meta)
    return 0


def cmd_snapshot_verify(args: argparse.Namespace) -> int:
    try:
        meta = verify_snapshot(args.snapshot)
    except SnapshotError as exc:
        raise CliError(f"cannot verify snapshot {args.snapshot}: {exc}") from None
    _snapshot_row(args, args.snapshot, meta)
    return 0


# -- Parser wiring -------------------------------------------------------------


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--events", metavar="FILE", help="replay this JSONL event stream")
    group.add_argument("--snapshot", metavar="FILE", help="load state from this snapshot")
    parser.add_argument(
        "--at-block",
        type=_nonneg_int,
        metavar="N",
        help="with --events, replay only blocks <= N",
    )
    # main() rejects --at-block with --snapshot, which argparse cannot state.
    parser.set_defaults(state_source=parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plfkit",
        description="Replay loanable-funds protocol event logs and analyze the resulting state.",
    )
    parser.add_argument("--version", action="version", version=f"plfkit {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("replay", help="replay an event stream and report the state digest")
    p.add_argument("--events", metavar="FILE", required=True)
    p.add_argument("--at-block", type=_nonneg_int, metavar="N")
    p.add_argument("--snapshot-in", metavar="FILE", help="resume from this snapshot")
    p.add_argument("--snapshot-out", metavar="FILE", help="save the final state here")
    _add_output_flags(p)
    p.set_defaults(func=cmd_replay)

    p = subparsers.add_parser("liquidable", help="list accounts eligible for liquidation")
    _add_state_source(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_liquidable)

    p = subparsers.add_parser("sensitivity", help="liquidable collateral under price shocks")
    _add_state_source(p)
    p.add_argument("--asset", required=True, metavar="SYM", help="asset whose price is shocked")
    p.add_argument(
        "--shocks",
        type=_shock_list,
        required=True,
        metavar="LIST",
        help="comma-separated relative drops, each in [0, 1)",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_sensitivity)

    p = subparsers.add_parser("efficiency", help="liquidation-speed CDF from an event stream")
    p.add_argument("--events", metavar="FILE", required=True)
    p.add_argument("--at-block", type=_nonneg_int, metavar="N")
    p.add_argument("--weighting", choices=("value", "count"), default="value")
    p.add_argument(
        "--full-reeval",
        action="store_true",
        help="re-evaluate every account after every event (slow, for cross-checks)",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_efficiency)

    p = subparsers.add_parser("concentration", help="top-account share of supply or borrows")
    _add_state_source(p)
    p.add_argument("--side", choices=("supply", "borrow"), required=True)
    p.add_argument("--top", type=_positive_int, default=10, metavar="N")
    _add_output_flags(p)
    p.set_defaults(func=cmd_concentration)

    p = subparsers.add_parser("timeseries", help="supplied/borrowed/locked USD per block")
    p.add_argument("--events", metavar="FILE", required=True)
    p.add_argument("--stride", type=_positive_int, default=1, metavar="N")
    _add_output_flags(p)
    p.set_defaults(func=cmd_timeseries)

    p = subparsers.add_parser("leverage", help="collateral/debt totals for iterated borrowing")
    p.add_argument("--alpha", type=_nonneg_dec_arg, required=True, help="initial funds")
    p.add_argument("--delta", type=_delta_arg, required=True, help="collateralization ratio, > 1")
    p.add_argument("--rounds", type=_nonneg_int, required=True, help="borrowing rounds")
    p.add_argument(
        "--premium",
        type=_nonneg_dec_arg,
        default=ZERO,
        help="liquidity premium applied to debt (default 0)",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_leverage)

    p = subparsers.add_parser("gen-scenario", help="generate an annotated synthetic stream")
    p.add_argument("--seed", type=_nonneg_int, help="RNG seed (unsigned 64-bit)")
    p.add_argument("--spec", metavar="FILE", help="scenario spec JSON (overrides defaults)")
    p.add_argument("--events-out", required=True, metavar="FILE")
    p.add_argument("--annotations-out", required=True, metavar="FILE")
    p.add_argument("--event-count", type=_positive_int, default=400, metavar="N")
    p.add_argument("--accounts", type=_positive_int, default=8, metavar="N")
    _add_output_flags(p)
    p.set_defaults(func=cmd_gen_scenario)

    p = subparsers.add_parser("snapshot", help="save, load, or verify state snapshots")
    snap_sub = p.add_subparsers(dest="snapshot_command", required=True)

    sp = snap_sub.add_parser("save", help="replay events and write a snapshot")
    sp.add_argument("--events", metavar="FILE", required=True)
    sp.add_argument("--at-block", type=_nonneg_int, metavar="N")
    sp.add_argument("--out-path", required=True, metavar="FILE", help="snapshot destination")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_snapshot_save)

    sp = snap_sub.add_parser("load", help="load a snapshot and report its digest")
    sp.add_argument("--snapshot", metavar="FILE", required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_snapshot_load)

    sp = snap_sub.add_parser("verify", help="check a snapshot's digest")
    sp.add_argument("--snapshot", metavar="FILE", required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_snapshot_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        source = getattr(args, "state_source", None)
        if source is not None and args.snapshot is not None and args.at_block is not None:
            source.error("argument --at-block: not allowed with argument --snapshot")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (CliError, TransitionError, MissingPriceError, DecOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
