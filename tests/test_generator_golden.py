"""Byte-for-byte generator outputs against a committed recording.

Each spec of the matrix below is generated once; the recording holds the
SHA-256 of its event stream and of its annotation file, or the error text
of a spec that cannot be realized.

Rewrite the recording only when an output change is intended:

    PYTHONPATH=src:tests python tests/test_generator_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from plfkit.fixedpoint import Dec
from plfkit.scenarios import (
    ConcentrationPlan,
    GenerationError,
    PlannedLiquidation,
    ScenarioSpec,
    default_spec,
    generate,
    spec_from_dict,
)

RECORDING = Path(__file__).parent / "golden" / "generator.json"


def three_market_spec(seed: int, events: int, accounts: int, delays: tuple[int, ...],
                      checkpoints: int) -> ScenarioSpec:
    """Three base markets and one planned liquidation per delay, spread
    evenly over the stream: the shape of the benchmark's specs."""
    spacing = events * 2 // 3 // (len(delays) + 1)
    return spec_from_dict({
        "seed": seed,
        "accounts": accounts,
        "event_count": events,
        "checkpoint_count": checkpoints,
        "markets": [
            {"symbol": "DAI", "initial_exchange_rate": "0.02", "collateral_factor": "0.75",
             "price": {"initial": "1", "max_step_bps": 5}},
            {"symbol": "ETH", "initial_exchange_rate": "0.02", "collateral_factor": "0.7",
             "price": {"initial": "2000", "max_step_bps": 25}},
            {"symbol": "BTC", "initial_exchange_rate": "0.02", "collateral_factor": "0.65",
             "price": {"initial": "30000", "max_step_bps": 20}},
        ],
        "planned_liquidations": [
            {
                "account": "0x" + format(0xD0000 + i, "040x"),
                "liquidable_block": spacing * (i + 1) - delay // 2,
                "liquidation_block": spacing * (i + 1) - delay // 2 + delay,
            }
            for i, delay in enumerate(delays)
        ],
    })


def matrix() -> dict[str, ScenarioSpec]:
    specs = {f"default.seed{seed}": default_spec(seed) for seed in range(12)}
    for seed in (7, 3):
        for side in ("supply", "borrow"):
            for shares in (("0.274",), ("0.3", "0.2")):
                spec = default_spec(seed, event_count=200)
                spec.planned_concentration = ConcentrationPlan(side, tuple(Dec(s) for s in shares))
                specs[f"{side}{len(shares)}.seed{seed}"] = spec
    for seed in range(3):
        specs[f"five-plans.seed{seed}"] = three_market_spec(seed, 1500, 40, (1, 3, 8, 20, 45), 6)
        specs[f"side.seed{seed}"] = three_market_spec(seed, 300, 10, (2,), 3)
    one_checkpoint = default_spec(5)
    one_checkpoint.checkpoint_count = 1
    specs["one-checkpoint"] = one_checkpoint
    small_whale = default_spec(7, event_count=200)
    small_whale.planned_concentration = ConcentrationPlan("supply", (Dec("0.01"),))
    specs["infeasible.small-whale"] = small_whale
    early_plan = default_spec(2)
    early_plan.planned_liquidations = [PlannedLiquidation("0x" + "ab" * 20, 2, 4)]
    specs["infeasible.plan-in-setup"] = early_plan
    return specs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_all(workdir: Path) -> dict[str, dict[str, str]]:
    results = {}
    for name, spec in matrix().items():
        events, annotations = workdir / f"{name}.jsonl", workdir / f"{name}.json"
        try:
            generate(spec, str(events), str(annotations))
        except GenerationError as exc:
            results[name] = {"error": str(exc)}
        else:
            results[name] = {"events": _sha256(events), "annotations": _sha256(annotations)}
    return results


def test_generator_outputs_match_recording(tmp_path):
    expected = json.loads(RECORDING.read_text(encoding="utf-8"))
    actual = run_all(tmp_path)
    assert list(actual) == list(expected)
    mismatched = {name: actual[name] for name in actual if actual[name] != expected[name]}
    assert not mismatched, f"{len(mismatched)} specs differ: {sorted(mismatched)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        results = run_all(Path(scratch))
    RECORDING.parent.mkdir(exist_ok=True)
    RECORDING.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} specs to {RECORDING}", file=sys.stderr)
