"""Layered benchmark of the ``plfkit`` command-line tool.

Usage, from the root of a checkout::

    python3 bench/run.py --workload bulk_stream --seed 1 --seconds 35 --trace 0

One client in a closed loop runs a workload's command mix (see
:mod:`mix`) again and again for ``--seconds``: each ``plfkit`` command is
a child process started only after the previous one has exited, and is
timed from spawn to exit. Every output is checked; a command that exits
non-zero or whose output fails its check counts as failed. Inputs are
generated from ``--seed`` (see :mod:`inputs`) before timing starts.
Each timing is the median over the run of per-invocation wall times
scaled to a reference CPU speed (see ``measured``); the medians as
measured are printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
mix in-process through ``plfkit.cli.main``, alternating untraced and
traced passes, and reports per-layer metrics from the spans of
:mod:`spans` together with the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The lines before it give each metric with its unit, median, sample count
and tail percentile, and per layer where the in-process time goes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from mix import COMMAND_METRICS, Command, Mix, Result, check, read_rows, sha256_file  # noqa: E402

SETUP_REPEATS = 3

# Why each workload is in the benchmark (kept in BENCHMARK.json too).
WORKLOADS = {
    "bulk_stream": "long stream on a small book: JSONL parsing and apply_event dominate; risk and snapshot work stay small",
    "annotated_scenario": "gen-scenario stream with annotations: the naive oracle and per-event re-valuation in efficiency dominate",
    "wide_book": "large state with a short tail: valuation of every account and snapshot serialisation dominate",
}

# Full sizes; the self-test passes smaller ones.
SIZES = {
    "bulk_stream": {"events": 20_000, "accounts": 50},
    "annotated_scenario": {"events": 1_500, "accounts": 40},
    "wide_book": {"accounts": 3_000, "tail": 1_500},
}

# Commands that take about 0.1-0.25 s on a workload, mostly interpreter
# start-up, run QUICK_REPEATS times in a row in each mix: their samples
# are the noisiest, and a run needs more of them to give a steady median.
QUICK_REPEATS = 3
QUICK = {
    "bulk_stream": frozenset({"gen_scenario_s", "snapshot_load_s", "snapshot_verify_s", "sensitivity_s",
                              "concentration_s"}),
    "annotated_scenario": frozenset({"replay_events_per_s", "resume_s", "snapshot_load_s", "snapshot_verify_s",
                                     "sensitivity_s", "concentration_s", "timeseries_s"}),
    "wide_book": frozenset({"gen_scenario_s", "snapshot_load_s", "snapshot_verify_s", "liquidable_s",
                            "concentration_s"}),
}

UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "replay_events_per_s": "events/s",
    "resume_s": "s",
    "snapshot_load_s": "s",
    "snapshot_verify_s": "s",
    "liquidable_s": "s",
    "sensitivity_s": "s",
    "concentration_s": "s",
    "efficiency_s": "s",
    "timeseries_s": "s",
    "gen_scenario_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    wall: float  # seconds as measured
    scaled: float  # seconds at the reference probe speed


# The machine's speed drifts by up to 1.6x over seconds to minutes, one
# CPU at a time, as other tenants come and go; a median over one run cannot
# remove that. So every timed step runs between two probes of fixed
# pure-Python work on the same CPU, and each time is also reported scaled
# by REFERENCE_PROBE_S / (mean of the two probes): seconds at the speed the
# probe has on an idle core of the reference machine (a shared 2-vCPU
# x86-64 virtual machine, CPython 3.11). A change to plfkit moves the step,
# not the probe.
PROBE_ITERATIONS = 40_000
REFERENCE_PROBE_S = 0.0065


def probe() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(PROBE_ITERATIONS):
        table[str(i)] = i * 3
    sum(table.values())
    return time.perf_counter() - start


def measured(fn, *args):
    """Run ``fn(*args)`` between two probes; returns (its result, Sample)."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = probe()
    return result, Sample(wall, wall * 2 * REFERENCE_PROBE_S / (before + after))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], work: str) -> tuple[Result, int]:
    """Run one ``plfkit`` command as a child; (result, max RSS in KiB)."""
    err_path = os.path.join(work, "stderr.txt")
    with open(err_path, "w+", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, "-m", "plfkit.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Result(proc.returncode, stderr, []), usage.ru_maxrss


# -- set-up -----------------------------------------------------------------------


def setup(workload: str, work: str, seed: int, sizes: dict) -> dict:
    """Write the workload's inputs into ``work``; returns the ground truth."""
    os.makedirs(work, exist_ok=True)
    if workload == "annotated_scenario":
        spec = inputs.scenario_spec(seed, delays=inputs.LIQUIDATION_DELAYS, checkpoints=6, **sizes)
        write_json(os.path.join(work, "gen.spec.json"), spec)
        result, _ = spawn(["gen-scenario", "--spec", os.path.join(work, "gen.spec.json"),
                           "--events-out", os.path.join(work, "stream.jsonl"),
                           "--annotations-out", os.path.join(work, "stream.ann.json")], work)
        if result.returncode != 0:
            raise RuntimeError(f"gen-scenario failed in set-up: {result.stderr.strip()}")
        with open(os.path.join(work, "stream.ann.json"), encoding="utf-8") as handle:
            truth = inputs.annotated_truth(work, json.load(handle))
    else:
        truth = getattr(inputs, workload)(work, seed, **sizes)
        write_json(os.path.join(work, "gen.spec.json"), inputs.side_spec(seed))
    result, _ = spawn(["--version"], work)  # warm-up: imports and bytecode caches
    if result.returncode != 0:
        raise RuntimeError(f"plfkit does not start: {result.stderr.strip()}")
    return truth


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def timed_setup(workload: str, work: str, seed: int, sizes: dict) -> tuple[dict, list[Sample]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        truth, sample = measured(setup, workload, work, seed, sizes)
        setups.append(sample)
    return truth, setups


def initial_reference(workload: str, work: str) -> dict:
    """The annotated workload's timed gen-scenario must reproduce its set-up output."""
    if workload != "annotated_scenario":
        return {}
    return {"gen": sha256_file(os.path.join(work, "stream.jsonl")) + sha256_file(os.path.join(work, "stream.ann.json"))}


# -- statistics -------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]


def describe(name: str, value: float, unit: str, samples: list[Sample] | None = None) -> str:
    text = f"  {name:<24} {value:>14.6g} {unit:<9}"
    if samples:
        scaled = [x.scaled for x in samples]
        tail = tail_percentile(scaled)
        tail_text = f"p{tail[0]} {tail[1]:.4g} s" if tail else "no percentile with 10 samples beyond it"
        text += (f"  median of n={len(samples)}; {tail_text}; "
                 f"as measured {statistics.median(x.wall for x in samples):.4g} s")
    return text


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, command: Command, result: Result) -> None:
        self.attempted += 1
        result.rows = read_rows(command.out)
        reason = check(command, result)
        if reason is not None:
            self.failures.append(f"{' '.join(command.argv[:2])}: {reason}")

    def report(self) -> None:
        frac = len(self.failures) / self.attempted if self.attempted else 1.0
        print(f"  {'ops_failed_frac':<24} {frac:>14.6g} {'ratio':<9}  {len(self.failures)} of {self.attempted} commands")
        for line in self.failures[:10]:
            print(f"  FAILED {line}")


# -- end-to-end run ---------------------------------------------------------------


def run_end_to_end(workload: str, seed: int, seconds: float, work: str, sizes: dict,
                   tamper=None) -> dict:
    truth, setups = timed_setup(workload, work, seed, sizes)
    commands = Mix(work, truth, initial_reference(workload, work)).commands(QUICK[workload], QUICK_REPEATS)
    samples: dict[str, list[Sample]] = {metric: [] for metric in COMMAND_METRICS}
    mixes: list[Sample] = []
    peak_rss = 0
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while True:
        mix = Sample(0.0, 0.0)
        for command in commands:
            command.clear_output()
            (result, rss), sample = measured(spawn, command.argv, work)
            if tamper is not None:
                tamper(command)
            tally.record(command, result)
            peak_rss = max(peak_rss, rss)
            mix = Sample(mix.wall + sample.wall, mix.scaled + sample.scaled)
            if command.metric is not None:
                samples[command.metric].append(sample)
        mixes.append(mix)
        if time.perf_counter() + statistics.median(m.wall for m in mixes) > deadline:
            break

    values = {metric: statistics.median(x.scaled for x in xs) for metric, xs in samples.items()}
    values["replay_events_per_s"] = truth["events"] / values["replay_events_per_s"]
    values.update(setup_s=statistics.median(x.scaled for x in setups),
                  total_s=statistics.median(m.scaled for m in mixes), peak_rss_mb=peak_rss / 1024)
    print(f"{workload} seed={seed}: {len(mixes)} mixes of {len(commands)} commands in a closed loop "
          f"with one client; {truth['events']} events per stream; times scaled to the reference probe speed")
    print(describe("setup_s", values["setup_s"], "s", setups))
    print(describe("total_s", values["total_s"], "s", mixes))
    for metric in COMMAND_METRICS:
        print(describe(metric, values[metric], UNITS[metric], samples[metric]))
    print(describe("peak_rss_mb", values["peak_rss_mb"], "MB") + "  highest max-RSS of any child")
    tally.report()
    return result_object(tally, {name: values[name] for name in UNITS})


def result_object(tally: Tally, values: dict[str, float]) -> dict:
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
    }


# -- traced run -------------------------------------------------------------------

PER_LAYER_UNITS = {
    "events.read_events_s": "s", "events.parse_us_per_event": "us", "events.stream_bytes": "bytes",
    "engine.apply_event_s": "s", "engine.apply_us_per_event": "us", "engine.replay_s": "s",
    "engine.state_digest_s": "s", "engine.state_digest_calls": "count",
    "model.state_to_dict_s": "s", "model.state_from_dict_s": "s", "model.canonical_json_bytes_s": "s",
    "model.positions": "count",
    "snapshots.save_s": "s", "snapshots.load_s": "s", "snapshots.verify_s": "s", "snapshots.bytes": "bytes",
    "risk.liquidable_accounts_s": "s", "risk.price_sensitivity_s": "s", "risk.health_us_per_account": "us",
    "analytics.track_efficiency_s": "s", "analytics.health_evals": "count",
    "analytics.health_evals_per_event": "ratio", "analytics.useful_eval_ratio": "ratio",
    "analytics.funds_time_series_s": "s", "analytics.concentration_s": "s",
    "scenarios.generate_s": "s", "scenarios.generate_us_per_event": "us",
    "events.self_s": "s", "engine.self_s": "s", "model.self_s": "s", "snapshots.self_s": "s",
    "risk.self_s": "s", "analytics.self_s": "s", "scenarios.self_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def unit_of(name: str) -> str:
    return UNITS.get(name) or PER_LAYER_UNITS[name]


def run_in_process(commands: list[Command], tally: Tally, tracer=None) -> float:
    """One pass of the mix through ``plfkit.cli.main``; returns its wall time."""
    from plfkit import cli

    start = time.perf_counter()
    for command in commands:
        if tracer is not None:
            tracer.begin_command(" ".join(command.argv[:2]))
        command.clear_output()
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(command.argv)
        tally.record(command, Result(code, err.getvalue(), []))
    return time.perf_counter() - start


def run_traced(workload: str, seed: int, seconds: float, work: str, sizes: dict) -> dict:
    from spans import LAYERS, Tracer

    truth, _ = timed_setup(workload, work, seed, sizes)
    sys.path.insert(0, SRC)
    import plfkit.cli  # noqa: F401  (loads every layer module before wrapping)

    commands = Mix(work, truth, initial_reference(workload, work)).commands(QUICK[workload], QUICK_REPEATS)
    tally = Tally()
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_mix: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_in_process(commands, tally))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_in_process(commands, tally, tracer))
        finally:
            tracer.uninstall()
        per_mix.append(tracer.layer_metrics())
        if time.perf_counter() + plain[-1] + traced[-1] > deadline:
            break

    values = {name: statistics.median(m[name] for m in per_mix) for name in per_mix[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    spans_path = os.path.join(os.path.dirname(work), f"spans-{workload}-seed{seed}.jsonl")
    tracer.dump(spans_path)

    in_process = statistics.median(traced)
    print(f"{workload} seed={seed}: {len(traced)} traced and {len(plain)} untraced in-process passes; "
          f"spans of the last pass in {os.path.relpath(spans_path, ROOT)}")
    print(f"  in-process mix: untraced {statistics.median(plain):.4g} s, traced {in_process:.4g} s, "
          f"overhead {values['trace.overhead_frac']:+.1%}")
    print("  self time by layer (median pass):")
    for layer in LAYERS:
        share = values[f"{layer}.self_s"] / in_process
        print(f"    {layer:<10} {values[f'{layer}.self_s']:>9.4f} s  {share:6.1%}")
    print("  per command (last traced pass): in-process s, digests, layer self times")
    for row in tracer.per_command():
        selfs = " ".join(f"{k}={v:.4f}" for k, v in sorted(row["self"].items(), key=lambda kv: -kv[1]) if v >= 5e-4)
        accounted = sum(row["self"].values())
        print(f"    {row['command']:<22} {row['in_process_s']:.4f} s  digests={row['digests']}  "
              f"self sum={accounted:.4f} s  {selfs}")
    for name in PER_LAYER_UNITS:
        print(describe(name, values[name], PER_LAYER_UNITS[name]))
    tally.report()
    return result_object(tally, {name: values[name] for name in PER_LAYER_UNITS})


# -- entry point ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "plfkit", "cli.py")):
        print(f"error: no plfkit sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # One CPU for this process and its children, so the probes see the
    # same CPU as the commands they bracket.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    run = run_traced if args.trace else run_end_to_end
    try:
        outcome = run(args.workload, args.seed, args.seconds, work, SIZES[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
