import pytest

from plfkit.analytics import (
    NOT_LIQUIDABLE_WARNING,
    CdfPoint,
    EfficiencyTimeline,
    FundsRow,
    LiquidationRecord,
    Streak,
    concentration,
    efficiency_cdf,
    funds_time_series,
    track_efficiency,
)
from plfkit.engine import TransitionError, replay
from plfkit.events import OrderingKey
from plfkit.fixedpoint import ONE, ZERO, Dec
from plfkit.model import GlobalState, MarketState, Position
from streams import (
    ACCT_A,
    ACCT_B,
    ACCT_C,
    ACCT_D,
    cdf_profile_stream,
    hand_fixture,
    make_event,
)


class TestTrackEfficiency:
    def test_hand_fixture_timeline(self):
        timeline = track_efficiency(GlobalState.fresh(), hand_fixture())
        # The ETH drop at block 10 sinks A; the block-12 liquidation
        # closes the streak two blocks later and restores health.
        assert timeline.streaks == [
            Streak(account=ACCT_A, start=OrderingKey(10, 0, 0), end=OrderingKey(12, 0, 0)),
        ]
        assert timeline.liquidations == [
            LiquidationRecord(
                account=ACCT_A,
                key=OrderingKey(12, 0, 0),
                blocks_elapsed=2,
                seized_value_usd=Dec("109.99999999999999998"),
            ),
        ]
        assert timeline.warnings == []

    def test_full_reeval_matches_incremental(self):
        incremental = track_efficiency(GlobalState.fresh(), hand_fixture())
        full = track_efficiency(GlobalState.fresh(), hand_fixture(), full_reeval=True)
        assert incremental.streaks == full.streaks
        assert incremental.liquidations == full.liquidations

    def test_tracking_resumes_from_mid_stream_state(self):
        events = hand_fixture()
        state, _ = replay(GlobalState.fresh(), [e for e in events if e.key.block <= 10])
        resumed = track_efficiency(state, [e for e in events if e.key.block > 10])
        # The open streak is seeded at the resume cursor, so elapsed
        # blocks still count from block 10.
        assert resumed.liquidations[0].blocks_elapsed == 2
        assert resumed.streaks[0].start == OrderingKey(10, 0, 0)

    def test_unknown_collateral_market_is_a_transition_error(self):
        events = hand_fixture()[:17] + [
            make_event(12, 0, 0, "LiquidateBorrow", "DAI", borrower=ACCT_A, liquidator=ACCT_B,
                       repay_amount_underlying=Dec(100), collateral_market="XYZ",
                       seized_ctokens=Dec(1)),
        ]
        with pytest.raises(TransitionError, match="^event 12:0:0: unknown market 'XYZ'$"):
            track_efficiency(GlobalState.fresh(), events)

    def test_recovery_closes_streak_without_record(self):
        events = hand_fixture()[:16]  # through the block-10 drop
        events.append(make_event(11, 0, 0, "PriceUpdate", "ETH", price_usd=Dec(90)))
        timeline = track_efficiency(GlobalState.fresh(), events)
        assert timeline.streaks == []
        assert timeline.liquidations == []

    def test_open_streak_reported_at_end(self):
        timeline = track_efficiency(GlobalState.fresh(), hand_fixture()[:16])
        assert timeline.streaks == [
            Streak(account=ACCT_A, start=OrderingKey(10, 0, 0), end=None),
        ]

    def test_liquidation_of_healthy_account_warns(self):
        events = hand_fixture()[:15]  # A never goes underwater
        events.append(make_event(9, 1, 0, "LiquidateBorrow", "DAI",
                                 borrower=ACCT_A, liquidator=ACCT_B,
                                 repay_amount_underlying=Dec(10),
                                 collateral_market="ETH", seized_ctokens=Dec(1)))
        timeline = track_efficiency(GlobalState.fresh(), events)
        record = timeline.liquidations[0]
        assert record.blocks_elapsed == 0
        assert record.warning == NOT_LIQUIDABLE_WARNING
        assert len(timeline.warnings) == 1
        assert NOT_LIQUIDABLE_WARNING in timeline.warnings[0]


class TestEfficiencyCdf:
    def test_profile_stream_value_weighted(self):
        timeline = track_efficiency(GlobalState.fresh(), cdf_profile_stream())
        assert timeline.warnings == []
        points = efficiency_cdf(timeline, weighting="value")
        assert points == [
            CdfPoint(0, Dec("0.6")),
            CdfPoint(2, Dec("0.85")),
            CdfPoint(16, Dec("0.95")),
            CdfPoint(30, Dec(1)),
        ]

    def test_profile_stream_count_weighted(self):
        timeline = track_efficiency(GlobalState.fresh(), cdf_profile_stream())
        points = efficiency_cdf(timeline, weighting="count")
        assert points == [
            CdfPoint(0, Dec("0.25")),
            CdfPoint(2, Dec("0.5")),
            CdfPoint(16, Dec("0.75")),
            CdfPoint(30, Dec(1)),
        ]

    def test_empty_timeline_has_no_points(self):
        assert efficiency_cdf(EfficiencyTimeline()) == []

    def test_weighting_validated(self):
        with pytest.raises(ValueError):
            efficiency_cdf(EfficiencyTimeline(), weighting="mass")

    def test_same_bucket_masses_merge(self):
        timeline = EfficiencyTimeline(liquidations=[
            LiquidationRecord(ACCT_A, OrderingKey(5, 0, 0), 3, Dec(30)),
            LiquidationRecord(ACCT_B, OrderingKey(9, 0, 0), 3, Dec(10)),
            LiquidationRecord(ACCT_C, OrderingKey(9, 1, 0), 7, Dec(60)),
        ])
        assert efficiency_cdf(timeline) == [
            CdfPoint(3, Dec("0.4")),
            CdfPoint(7, Dec(1)),
        ]


def ranked_state() -> GlobalState:
    """Three suppliers at 50/30/20 USD and two borrowers at 30/10."""
    state = GlobalState.fresh()
    market = MarketState.listed("USD", ONE, Dec("0.5"))
    market.total_ctoken_supply = Dec(100)
    market.total_borrows = Dec(40)
    state.markets["USD"] = market
    state.price_table.set("USD", ONE)
    state.participants[ACCT_A] = {"USD": Position(ctoken_balance=Dec(30),
                                                  borrow_principal=Dec(10))}
    state.participants[ACCT_B] = {"USD": Position(ctoken_balance=Dec(50))}
    state.participants[ACCT_C] = {"USD": Position(ctoken_balance=Dec(20),
                                                  borrow_principal=Dec(30))}
    return state


class TestConcentration:
    def test_supply_side_ranking(self):
        report = concentration(ranked_state(), "supply", top_n=2)
        assert report.total_usd == Dec(100)
        assert [(r.rank, r.account, r.value_usd, r.share) for r in report.rows] == [
            (1, ACCT_B, Dec(50), Dec("0.5")),
            (2, ACCT_A, Dec(30), Dec("0.3")),
            (3, ACCT_C, Dec(20), Dec("0.2")),
        ]
        assert report.top1_share == Dec("0.5")
        assert report.topn_share == Dec("0.8")
        assert not report.undefined

    def test_borrow_side_ranking(self):
        report = concentration(ranked_state(), "borrow", top_n=1)
        assert report.total_usd == Dec(40)
        assert report.rows[0].account == ACCT_C
        assert report.top1_share == Dec("0.75")

    def test_ties_break_by_address(self):
        state = ranked_state()
        state.participants[ACCT_B]["USD"].ctoken_balance = Dec(20)
        report = concentration(state, "supply", top_n=1)
        # ACCT_B and ACCT_C both hold 20; the lower address ranks first.
        tied = [r.account for r in report.rows if r.value_usd == Dec(20)]
        assert tied == sorted(tied)

    def test_top_n_beyond_population_covers_everything(self):
        report = concentration(ranked_state(), "supply", top_n=10)
        assert report.topn_share == ONE

    def test_empty_side_is_undefined(self):
        state = ranked_state()
        for holdings in state.participants.values():
            holdings["USD"].borrow_principal = ZERO
        report = concentration(state, "borrow", top_n=3)
        assert report.undefined
        assert report.total_usd == ZERO
        assert all(r.share == ZERO for r in report.rows)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            concentration(ranked_state(), "debt", 1)
        with pytest.raises(ValueError):
            concentration(ranked_state(), "supply", 0)


class TestFundsTimeSeries:
    def test_hand_fixture_every_block(self):
        rows = funds_time_series(GlobalState.fresh(), hand_fixture(), stride=1)
        expected = [
            (1, "0", "0"),
            (2, "5010", "0"),
            (3, "5010", "105"),
            (4, "5010.1", "115.5"),
            (5, "5010.1", "110"),
            (6, "4510.1", "110"),
            (7, "4960.1", "110"),
            (8, "4960.1", "310"),
            (9, "5009.6", "310"),
            (10, "3343.1", "310"),
            (11, "3040.1", "310"),
            (12, "3040.1", "210"),
            (13, "3040.1", "210"),
        ]
        assert [(r.block, str(r.supplied_usd), str(r.borrowed_usd)) for r in rows] == expected
        for row in rows:
            assert row.locked_usd == row.supplied_usd - row.borrowed_usd

    def test_stride_sampling_always_includes_last_block(self):
        rows = funds_time_series(GlobalState.fresh(), hand_fixture(), stride=5)
        assert [r.block for r in rows] == [1, 6, 11, 13]
        assert rows[-1].locked_usd == Dec("2830.1")

    def test_no_events_yields_single_zero_row(self):
        assert funds_time_series(GlobalState.fresh(), []) == [
            FundsRow(0, ZERO, ZERO, ZERO),
        ]

    def test_stride_validated(self):
        with pytest.raises(ValueError):
            funds_time_series(GlobalState.fresh(), hand_fixture(), stride=0)


class TestCdfStreamIntegrity:
    def test_four_victims_liquidated_at_planned_delays(self):
        timeline = track_efficiency(GlobalState.fresh(), cdf_profile_stream())
        assert [(r.account, r.blocks_elapsed, str(r.seized_value_usd))
                for r in timeline.liquidations] == [
            (ACCT_A, 0, "60"),
            (ACCT_B, 2, "25"),
            (ACCT_C, 16, "10"),
            (ACCT_D, 30, "5"),
        ]
