"""Acceptance battery: nine frozen behaviors with explicit time budgets.

Each test prints one pass/fail line (visible even under captured output)
naming the criterion, the elapsed time, and the budget. Expected values
are written out literally; nothing here is derived from the code under
test.
"""

import json
import time
from contextlib import contextmanager
from random import Random

import pytest

from plfkit.analytics import efficiency_cdf, track_efficiency
from plfkit.engine import replay, state_digest
from plfkit.events import read_events, write_events
from plfkit.fixedpoint import ONE, ZERO, Dec
from plfkit.leverage import total_collateral, total_debt
from plfkit.model import GlobalState, MarketState, Position, ProtocolParams
from plfkit.risk import (
    account_health,
    liquidable_accounts,
    max_repay,
    price_sensitivity,
    seize_quote_at_discount,
)
from plfkit.scenarios import default_spec, generate, ground_truth_from_dict
from plfkit.snapshots import load_snapshot, save_snapshot
from streams import (
    ACCT_A,
    ACCT_B,
    cdf_profile_stream,
    dense_stream,
    sensitivity_stream,
    throughput_stream,
)


@pytest.fixture
def criterion(capsys):
    """Times the enclosed block and prints one pass/fail line for it."""

    @contextmanager
    def run(number: int, label: str, budget_s: float):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            elapsed = time.perf_counter() - start
            with capsys.disabled():
                print(f"criterion {number} {label}: FAIL ({elapsed:.3f}s)")
            raise
        elapsed = time.perf_counter() - start
        verdict = "PASS" if elapsed < budget_s else "FAIL"
        with capsys.disabled():
            print(f"criterion {number} {label}: {verdict} "
                  f"({elapsed:.3f}s, budget {budget_s}s)")
        assert elapsed < budget_s, f"took {elapsed:.3f}s, budget {budget_s}s"

    return run


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Fifty generated streams of 1,000 to 5,000 events with annotations."""
    tmp = tmp_path_factory.mktemp("corpus")
    scenarios = []
    for i in range(50):
        size = 1000 + (i % 9) * 500
        spec = default_spec(seed=100 + i, event_count=size)
        scenarios.append(
            generate(spec, str(tmp / f"s{i}.jsonl"), str(tmp / f"s{i}.json"))
        )
    return scenarios


def test_1_borrow_capacity_example(criterion):
    state = GlobalState.fresh()
    state.markets["DAI"] = MarketState.listed("DAI", Dec("0.02"), Dec("0.75"))
    state.price_table.set("DAI", ONE)
    state.participants[ACCT_A] = {"DAI": Position(ctoken_balance=Dec(500))}
    account_health(state, ACCT_A)  # warm path
    with criterion(1, "borrow-capacity-example", 0.001):
        health = account_health(state, ACCT_A)
        assert health.collateral_power_usd == Dec("7.5")


def test_2_liquidator_profit_example(criterion):
    state = GlobalState.fresh(ProtocolParams(close_factor=Dec("0.5")))
    state.markets["ETH"] = MarketState.listed("ETH", Dec("0.02"), Dec("0.75"))
    state.participants[ACCT_A] = {"ETH": Position(borrow_principal=Dec(3_000_000))}
    seize_quote_at_discount(ONE, Dec("0.1"), ONE, ONE)  # warm path
    max_repay(state, ACCT_A, "ETH")
    with criterion(2, "liquidator-profit-example", 0.001):
        quote = seize_quote_at_discount(Dec(1_350_000), Dec("0.1"), ONE, ONE)
        assert quote.seized_value_usd == Dec(1_500_000)
        assert quote.profit_usd == Dec(150_000)
        assert max_repay(state, ACCT_A, "ETH") == Dec(1_500_000)


def test_3_leverage_identity(criterion):
    rng = Random(20260822)
    cases = [
        (
            Dec.from_mantissa(rng.randrange(0, 10 ** 24)),
            Dec.from_mantissa(rng.randrange(10 ** 18 + 1, 10 * 10 ** 18 + 1)),
            rng.randrange(0, 101),
        )
        for _ in range(1000)
    ]
    with criterion(3, "leverage-identity", 1.0):
        for alpha, delta, k in cases:
            collateral = total_collateral(alpha, delta, k)
            debt = total_debt(alpha, delta, k, ZERO)
            deviation = abs((collateral - debt - alpha).mantissa)
            assert deviation <= k
        assert total_collateral(Dec(100), Dec(2), 2) == Dec(175)
        assert total_debt(Dec(100), Dec(2), 2, ZERO) == Dec(75)
        # Loop-sum oracle for the worked example.
        term, coll_sum, debt_sum = Dec(100), Dec(100), ZERO
        for _ in range(2):
            term = term / Dec(2)
            coll_sum = coll_sum + term
            debt_sum = debt_sum + term
        assert (coll_sum, debt_sum) == (Dec(175), Dec(75))


def test_4_oracle_equivalence(criterion, corpus):
    with criterion(4, "oracle-equivalence", 60.0):
        for scenario in corpus:
            events = read_events(scenario.events_path)
            with open(scenario.annotations_path, "r", encoding="ascii") as handle:
                truth = ground_truth_from_dict(json.load(handle))

            state = GlobalState.fresh()
            position = 0
            for checkpoint in truth.checkpoints:
                while (position < len(events)
                       and events[position].key.block <= checkpoint.block):
                    replay(state, [events[position]])
                    position += 1
                assert tuple(sorted(liquidable_accounts(state))) == checkpoint.liquidable
                for symbol, check in checkpoint.markets.items():
                    market = state.markets[symbol]
                    assert market.total_ctoken_supply == check.total_ctoken_supply
                    assert market.total_borrows == check.total_borrows
                    ctoken_sum = ZERO
                    accrued_sum = ZERO
                    for holdings in state.participants.values():
                        pos = holdings.get(symbol)
                        if pos is None:
                            continue
                        ctoken_sum = ctoken_sum + pos.ctoken_balance
                        accrued_sum = accrued_sum + pos.accrued_borrow(market.borrow_index)
                    assert ctoken_sum == check.participant_ctoken_sum
                    assert accrued_sum == check.participant_accrued_sum

            timeline = track_efficiency(GlobalState.fresh(), events)
            assert len(timeline.liquidations) == len(truth.efficiency)
            for record, check in zip(timeline.liquidations, truth.efficiency):
                assert record.account == check.account
                assert record.key.block == check.liquidation_block
                assert record.blocks_elapsed == check.blocks_elapsed
                assert record.seized_value_usd == check.seized_value_usd
                assert (record.warning is not None) == check.warned


def test_5_determinism_and_resume(criterion, tmp_path):
    events = dense_stream(2000)
    boundaries = sorted({e.key.block for e in events})[:-1]
    one_shot = replay(GlobalState.fresh(), list(events))[1].digest
    snap_path = str(tmp_path / "boundary.snap")
    with criterion(5, "determinism-and-resume", 10.0):
        running = GlobalState.fresh()
        position = 0
        for boundary in boundaries:
            while (position < len(events)
                   and events[position].key.block <= boundary):
                replay(running, [events[position]])
                position += 1
            split = running.copy()
            assert replay(split, events[position:])[1].digest == one_shot
            save_snapshot(running, snap_path)
            resumed = load_snapshot(snap_path)
            assert replay(resumed, events[position:])[1].digest == one_shot
        assert len(boundaries) >= 300


def test_6_efficiency_cdf(criterion, corpus):
    with criterion(6, "efficiency-cdf", 5.0):
        timeline = track_efficiency(GlobalState.fresh(), cdf_profile_stream())
        points = efficiency_cdf(timeline, weighting="value")
        assert [(p.blocks, p.cumulative_fraction) for p in points] == [
            (0, Dec("0.6")),
            (2, Dec("0.85")),
            (16, Dec("0.95")),
            (30, Dec(1)),
        ]
        # Monotone and terminating at exactly 1 on arbitrary streams.
        for scenario in corpus[:10]:
            events = read_events(scenario.events_path)
            random_timeline = track_efficiency(GlobalState.fresh(), events)
            for weighting in ("value", "count"):
                cdf = efficiency_cdf(random_timeline, weighting=weighting)
                assert cdf, "every generated stream contains a liquidation"
                previous = ZERO
                for point in cdf:
                    assert point.cumulative_fraction >= previous
                    previous = point.cumulative_fraction
                assert cdf[-1].cumulative_fraction == ONE


def test_7_sensitivity_properties(criterion):
    state, _ = replay(GlobalState.fresh(), sensitivity_stream())
    with criterion(7, "sensitivity-properties", 5.0):
        shocks = [ZERO, Dec("0.01"), Dec("0.03"), Dec("0.05")]
        rows = price_sensitivity(state, "SHK", shocks)

        baseline = liquidable_accounts(state)
        assert rows[0].liquidable_accounts == len(baseline) == 0
        assert rows[0].liquidable_collateral_usd == ZERO

        for lower, upper in zip(rows, rows[1:]):
            assert upper.liquidable_accounts >= lower.liquidable_accounts
            assert upper.liquidable_collateral_usd >= ZERO

        # The account sitting at ratio 1.02 (ACCT_B) survives a 1% drop
        # and capsizes at 3%.
        assert account_health(state, ACCT_B).ratio == Dec("1.02")
        survived = state.copy()
        survived.price_table.set("SHK", Dec("0.99"))
        assert not account_health(survived, ACCT_B).liquidable
        capsized = state.copy()
        capsized.price_table.set("SHK", Dec("0.97"))
        assert account_health(capsized, ACCT_B).liquidable
        assert [r.liquidable_accounts for r in rows] == [0, 1, 2, 3]


def test_8_replay_throughput(criterion):
    events = throughput_stream(100_000)
    state = GlobalState.fresh()
    with criterion(8, "replay-throughput", 10.0):
        _, report = replay(state, events)
    assert report.events_applied == 100_000
    assert report.warnings == []
    assert state_digest(state) == report.digest


def test_9_parse_and_replay_throughput(criterion, tmp_path):
    path = tmp_path / "throughput.jsonl"
    write_events(str(path), throughput_stream(100_000))
    state = GlobalState.fresh()
    with criterion(9, "parse-and-replay-throughput", 5.5):
        events = read_events(str(path))
        _, report = replay(state, events)
    assert report.events_applied == 100_000
    assert report.warnings == []
    assert state_digest(state) == report.digest
