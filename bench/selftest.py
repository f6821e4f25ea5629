"""Small-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs one mix of every workload on small inputs and checks that

* every end-to-end metric in ``BENCHMARK.json`` is printed by name with
  its unit, and no command fails on the current code;
* the traced run prints every per-layer metric by name with its unit;
* a deliberately corrupted output (one wrong digest) is counted as a
  failed operation and makes the run incorrect;
* without the ``plfkit`` sources the benchmark exits non-zero and prints
  no result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys

import run

SMALL = {
    "bulk_stream": {"events": 2_000, "accounts": 20},
    "annotated_scenario": {"events": 400, "accounts": 12},
    "wide_book": {"accounts": 300, "tail": 200},
}


def captured(fn, *args, **kwargs) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outcome = fn(*args, **kwargs)
    return outcome, out.getvalue()


def printed_with_unit(text: str, name: str, unit: str) -> bool:
    return any(line.split()[:3][0::2] == [name, unit] for line in text.splitlines() if line.strip())


def corrupt_resume_digest(command: run.Command) -> None:
    if command.metric != "resume_s":
        return
    with open(command.out, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows[1][-1] = ("0" if rows[1][-1][0] != "0" else "1") + rows[1][-1][1:]
    with open(command.out, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    scratch = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    problems: list[str] = []
    try:
        for workload, sizes in SMALL.items():
            work = os.path.join(scratch, workload)
            outcome, text = captured(run.run_end_to_end, workload, 5, 0, work, sizes)
            if outcome["failed"] or not outcome["correct"]:
                problems.append(f"{workload}: {outcome['failed']} commands failed:\n{text}")
            for metric in bench["end_to_end"]:
                name, unit = metric["name"], metric["unit"]
                if not printed_with_unit(text, name, unit):
                    problems.append(f"{workload}: {name} not printed with unit {unit}")
                if outcome["metrics"].get(name, {}).get("unit") != unit:
                    problems.append(f"{workload}: {name} missing from the result or not in {unit}")

        outcome, text = captured(run.run_traced, "wide_book", 5, 0, os.path.join(scratch, "traced"),
                                 SMALL["wide_book"])
        if outcome["failed"]:
            problems.append(f"traced run: {outcome['failed']} commands failed:\n{text}")
        for metric in bench["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            if not printed_with_unit(text, name, unit) or outcome["metrics"].get(name, {}).get("unit") != unit:
                problems.append(f"traced run: {name} not reported in {unit}")

        outcome, text = captured(run.run_end_to_end, "bulk_stream", 5, 0, os.path.join(scratch, "corrupt"),
                                 SMALL["bulk_stream"], tamper=corrupt_resume_digest)
        if outcome["failed"] != 1 or outcome["correct"]:
            problems.append(f"a corrupted digest was not counted as one failure: {outcome}")
        if "ops_failed_frac" not in text or "FAILED replay --snapshot-in" not in text:
            problems.append("the corrupted digest does not show in ops_failed_frac")

        bare = os.path.join(scratch, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bulk_stream", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
