"""Span recorder for the traced in-process run.

``Tracer.install`` wraps the public functions of each layer module of
``plfkit`` at every ``plfkit`` module that binds them (``analytics`` and
``cli`` import theirs by name, so patching only the defining module would
miss those calls). A call opens a span: name, start, end, parent and the
command it belongs to. Calls made once per event or per account are
folded: their count and total time are added to the enclosing span
instead of opening one span each.

A layer's self time is the time of its spans minus the time of their
child spans and folded calls, plus the folded time of its own functions.
``fixedpoint`` is not wrapped: it runs for every single value, so its
cost shows in the self time of the layers that call it. ``leverage`` is
closed-form, takes microseconds, and no command in the mixes calls it.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from typing import Any

LAYERS = ("events", "engine", "model", "snapshots", "risk", "analytics", "scenarios", "cli")

# Called once per event or per account: folded into the enclosing span.
FOLDED = {"engine.apply_event", "risk._health"}
# Per-line helpers below ``events.read_events`` and a one-line delegation to
# ``risk._health``; the enclosing span or fold already accounts for them.
SKIPPED = {
    "events.is_valid_address", "events.parse_event_obj", "events.parse_event_line",
    "events.serialize_event", "events.event_to_obj", "events.iter_events",
    "risk.account_health",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "command", "folded", "child_time", "info")

    def __init__(self, name: str, parent: "Span | None", command: int):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.command = command
        self.folded: dict[str, list] = {}  # name -> [calls, seconds]
        self.child_time = 0.0
        self.info: dict[str, Any] = {}
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.command = -1
        self.command_names: list[str] = []
        self.status: dict[str, bool] = {}  # account -> liquidable, within one track_efficiency
        self.useful = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def begin_command(self, name: str) -> None:
        self.command += 1
        self.command_names.append(name)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, parent, tracer.command)
            tracer.spans.append(span)
            tracer.stack.append(span)
            if name == "analytics.track_efficiency":
                tracer.status = {}
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
            tracer._annotate(span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _fold_wrapper(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            if tracer.stack:
                top = tracer.stack[-1]
                entry = top.folded.get(name)
                if entry is None:
                    top.folded[name] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                if name == "risk._health" and top.name == "analytics.track_efficiency":
                    liquidable = result.liquidable
                    if tracer.status.get(args[1], False) != liquidable:
                        tracer.useful += 1
                    tracer.status[args[1]] = liquidable
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _annotate(span: Span, args: tuple, result: Any) -> None:
        """Work counts that per-layer metrics divide by."""
        if span.name == "events.read_events":
            span.info["events"] = len(result)
            span.info["bytes"] = os.path.getsize(args[0])
        elif span.name == "snapshots.save_snapshot":
            span.info["bytes"] = os.path.getsize(args[1])
        elif span.name == "model.state_to_dict":
            span.info["positions"] = sum(len(h) for h in result["participants"].values())
        elif span.name == "scenarios.generate":
            span.info["events"] = result.event_count

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "plfkit" and mod}
        for layer in LAYERS:
            mod = modules[f"plfkit.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in SKIPPED or (attr.startswith("_") and name not in FOLDED):
                    continue
                wrapper = (self._fold_wrapper if name in FOLDED else self._span_wrapper)(name, fn)
                for binder in modules.values():
                    for bound, value in list(vars(binder).items()):
                        if value is fn:
                            self._patches.append((binder, bound, fn))
                            setattr(binder, bound, wrapper)

    def uninstall(self) -> None:
        for binder, bound, fn in reversed(self._patches):
            setattr(binder, bound, fn)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.command_names.clear()
        self.command = -1
        self.useful = 0

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded since ``reset``."""
        m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        info: dict[str, float] = {}
        fold_calls: dict[str, int] = {}
        fold_time: dict[str, float] = {}
        eff_evals = eff_events = 0
        positions = 0
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] = total.get(span.name, 0.0) + duration
            calls[span.name] = calls.get(span.name, 0) + 1
            folded_time = 0.0
            for name, (count, seconds) in span.folded.items():
                folded_time += seconds
                fold_calls[name] = fold_calls.get(name, 0) + count
                fold_time[name] = fold_time.get(name, 0.0) + seconds
                m[name.split(".", 1)[0] + ".self_s"] += seconds
            m[span.layer + ".self_s"] += duration - span.child_time - folded_time
            for key, value in span.info.items():
                if key == "positions":
                    positions = max(positions, value)
                else:
                    info[f"{span.name}:{key}"] = info.get(f"{span.name}:{key}", 0) + value
            if span.name == "analytics.track_efficiency":
                eff_evals += span.folded.get("risk._health", [0])[0]
                eff_events += span.folded.get("engine.apply_event", [0])[0]

        def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
            return numerator / denominator * scale if denominator else 0.0

        read_s = total.get("events.read_events", 0.0)
        apply_n, apply_s = fold_calls.get("engine.apply_event", 0), fold_time.get("engine.apply_event", 0.0)
        health_n, health_s = fold_calls.get("risk._health", 0), fold_time.get("risk._health", 0.0)
        generate_s = total.get("scenarios.generate", 0.0)
        m.update({
            "events.read_events_s": read_s,
            "events.parse_us_per_event": per(read_s, info.get("events.read_events:events", 0), 1e6),
            "events.stream_bytes": info.get("events.read_events:bytes", 0),
            "engine.apply_event_s": apply_s,
            "engine.apply_us_per_event": per(apply_s, apply_n, 1e6),
            "engine.replay_s": total.get("engine.replay", 0.0),
            "engine.state_digest_s": total.get("engine.state_digest", 0.0),
            "engine.state_digest_calls": calls.get("engine.state_digest", 0),
            "model.state_to_dict_s": total.get("model.state_to_dict", 0.0),
            "model.state_from_dict_s": total.get("model.state_from_dict", 0.0),
            "model.canonical_json_bytes_s": total.get("model.canonical_json_bytes", 0.0),
            "model.positions": positions,
            "snapshots.save_s": total.get("snapshots.save_snapshot", 0.0),
            "snapshots.load_s": total.get("snapshots.load_snapshot", 0.0),
            "snapshots.verify_s": total.get("snapshots.verify_snapshot", 0.0),
            "snapshots.bytes": info.get("snapshots.save_snapshot:bytes", 0),
            "risk.liquidable_accounts_s": total.get("risk.liquidable_accounts", 0.0),
            "risk.price_sensitivity_s": total.get("risk.price_sensitivity", 0.0),
            "risk.health_us_per_account": per(health_s, health_n, 1e6),
            "analytics.track_efficiency_s": total.get("analytics.track_efficiency", 0.0),
            "analytics.health_evals": eff_evals,
            "analytics.health_evals_per_event": per(eff_evals, eff_events),
            "analytics.useful_eval_ratio": per(self.useful, eff_evals),
            "analytics.funds_time_series_s": total.get("analytics.funds_time_series", 0.0),
            "analytics.concentration_s": total.get("analytics.concentration", 0.0),
            "scenarios.generate_s": generate_s,
            "scenarios.generate_us_per_event": per(generate_s, info.get("scenarios.generate:events", 0), 1e6),
        })
        return m

    def per_command(self) -> list[dict[str, Any]]:
        """In-process time, digest calls and layer self times for each command."""
        rows = [{"command": name, "in_process_s": 0.0, "digests": 0, "self": {}} for name in self.command_names]
        for span in self.spans:
            row = rows[span.command]
            if span.parent is None:
                row["in_process_s"] += span.end - span.start
            if span.name == "engine.state_digest":
                row["digests"] += 1
            selfs = row["self"]
            own = span.end - span.start - span.child_time
            for name, (_, seconds) in span.folded.items():
                own -= seconds
                layer = name.split(".", 1)[0]
                selfs[layer] = selfs.get(layer, 0.0) + seconds
            selfs[span.layer] = selfs.get(span.layer, 0.0) + own
        return rows

    def dump(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "command": span.command,
                    "command_name": self.command_names[span.command] if span.command >= 0 else None,
                    "parent": None if span.parent is None else index[id(span.parent)],
                    "start": span.start,
                    "end": span.end,
                    "folded": span.folded,
                    "info": span.info,
                }) + "\n")
