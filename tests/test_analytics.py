import tempfile
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import plfkit.analytics
import plfkit.risk
from plfkit.analytics import (
    NOT_LIQUIDABLE_WARNING,
    CdfPoint,
    EfficiencyTimeline,
    FundsRow,
    LiquidationRecord,
    Streak,
    _seized_value,
    concentration,
    efficiency_cdf,
    funds_time_series,
    track_efficiency,
)
from plfkit.cli import main
from plfkit.engine import ReplayReport, TransitionError, _fold, apply_event, replay
from plfkit.events import EventRecord, OrderingKey, read_events, write_events
from plfkit.fixedpoint import MANTISSA_BOUND, ONE, SCALE, ZERO, Dec, DecOverflowError, trunc_mul
from plfkit.model import GlobalState, MarketState, MissingPriceError, Position, ProtocolParams
from plfkit.risk import LiquidableCache, _sums, account_health
from plfkit.scenarios import default_spec, generate
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

    def test_liquidator_recovers_through_seized_collateral(self):
        # A, underwater since block 10, liquidates B and receives enough
        # cETH to recover (power 189.375 + 18.18 against 200 of debt).
        events = hand_fixture()[:16]
        events.append(make_event(11, 0, 0, "LiquidateBorrow", "DAI",
                                 borrower=ACCT_B, liquidator=ACCT_A,
                                 repay_amount_underlying=Dec(10),
                                 collateral_market="ETH", seized_ctokens=Dec(10)))
        timeline = track_efficiency(GlobalState.fresh(), events)
        assert timeline.streaks == []
        assert [record.account for record in timeline.liquidations] == [ACCT_B]

    def test_open_streak_reported_at_end(self):
        timeline = track_efficiency(GlobalState.fresh(), hand_fixture()[:16])
        assert timeline.streaks == [
            Streak(account=ACCT_A, start=OrderingKey(10, 0, 0), end=None),
        ]

    def test_asset_priced_before_its_listing(self):
        # ETH is priced before it is listed, so its listing re-prices it:
        # the later small drop must still reach A, whose power falls from
        # 75 to 73.875 against 74 of debt.
        events = [
            make_event(1, 0, 0, "PriceUpdate", "ETH", price_usd=Dec(100)),
            make_event(1, 1, 0, "MarketListed", "ETH",
                       initial_exchange_rate=Dec("0.02"), initial_collateral_factor=Dec("0.75")),
            make_event(1, 2, 0, "MarketListed", "DAI",
                       initial_exchange_rate=Dec("0.02"), initial_collateral_factor=Dec("0.75")),
            make_event(1, 3, 0, "PriceUpdate", "DAI", price_usd=ONE),
            make_event(2, 0, 0, "Mint", "ETH", account=ACCT_A, amount_underlying=ONE, amount_ctokens=Dec(50)),
            make_event(2, 1, 0, "Mint", "DAI", account=ACCT_B,
                       amount_underlying=Dec(1000), amount_ctokens=Dec(50000)),
            make_event(3, 0, 0, "Borrow", "DAI", account=ACCT_A, amount_underlying=Dec(74)),
            make_event(4, 0, 0, "PriceUpdate", "ETH", price_usd=Dec("98.5")),
            make_event(6, 0, 0, "LiquidateBorrow", "DAI", borrower=ACCT_A, liquidator=ACCT_B,
                       repay_amount_underlying=Dec(30), collateral_market="ETH", seized_ctokens=Dec(20)),
        ]
        timeline = track_efficiency(GlobalState.fresh(), events)
        assert timeline == reference_track_efficiency(GlobalState.fresh(), events)
        assert timeline == track_efficiency(GlobalState.fresh(), events, full_reeval=True)
        assert [(record.account, record.blocks_elapsed) for record in timeline.liquidations] == [(ACCT_A, 2)]
        assert timeline.warnings == []

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

    def test_engine_and_tracker_warnings_keep_event_order(self, capsys, tmp_path):
        events = hand_fixture()[:15]
        events[5] = make_event(2, 0, 0, "Mint", "DAI", account=ACCT_A,
                               amount_underlying=Dec(11), amount_ctokens=Dec(500))
        events += [
            make_event(9, 1, 0, "LiquidateBorrow", "DAI", borrower=ACCT_A, liquidator=ACCT_B,
                       repay_amount_underlying=Dec(10), collateral_market="ETH",
                       seized_ctokens=Dec(1)),
            make_event(10, 0, 0, "AccrueInterest", "DAI", new_borrow_index=Dec("1.05"),
                       new_exchange_rate=Dec("0.0202"), interest_accumulated_underlying=Dec(0)),
        ]
        expected = [
            "event 2:0:0: mint amounts disagree with exchange rate 0.02: underlying 11 vs 500 ctokens",
            f"event 9:1:0: {NOT_LIQUIDABLE_WARNING}: {ACCT_A}",
            "event 10:0:0: borrow index decreased from 1.1 to 1.05",
        ]
        assert track_efficiency(GlobalState.fresh(), events).warnings == expected
        path = str(tmp_path / "warnings.jsonl")
        write_events(path, events)
        assert main(["efficiency", "--events", path]) == 0
        assert capsys.readouterr().err == "".join(f"warning: {line}\n" for line in expected)


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

    @pytest.mark.parametrize("side,value", [("supply", Dec(10 ** 50)), ("borrow", Dec.from_mantissa(1))])
    def test_ranks_a_book_whose_ratio_overflows(self, side, value):
        # Power 10^50 against a debt of 10^-18: the health ratio leaves the
        # carrier, but concentration prints no ratio, as sensitivity does not.
        report = concentration(failing_book(("DAI", 10 ** 68, 1, UNIT, UNIT)), side, top_n=1)
        assert [(r.account, r.value_usd, r.share) for r in report.rows] == [(ACCT_A, value, ONE)]
        assert report.total_usd == value

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            concentration(ranked_state(), "debt", 1)
        with pytest.raises(ValueError):
            concentration(ranked_state(), "supply", 0)


# -- Reference time series ---------------------------------------------------
#
# funds_time_series as written before it valued samples on int mantissas and
# reused the rows of samples no event reached: every sample valued with Dec
# operators on its own state. Kept here as the reference.


def reference_funds_row(state: GlobalState, block: int) -> FundsRow:
    supplied = ZERO
    borrowed = ZERO
    for symbol in sorted(state.markets):
        market = state.markets[symbol]
        if market.total_ctoken_supply.is_zero() and market.total_borrows.is_zero():
            continue
        price = state.price_table.get(symbol)
        supplied = supplied + (market.total_ctoken_supply * market.exchange_rate) * price
        borrowed = borrowed + market.total_borrows * price
    return FundsRow(
        block=block, supplied_usd=supplied, borrowed_usd=borrowed, locked_usd=supplied - borrowed
    )


def reference_funds_time_series(start: GlobalState, events, stride: int):
    """Each sample valued by reference_funds_row on a copy of ``start``
    replayed afresh up to the sample block, with the last replay's
    warnings."""
    blocks = [e.key.block for e in events]
    rows = []
    for sample in [*range(blocks[0], blocks[-1], stride), blocks[-1]]:
        state = start.copy()
        warnings = []
        for event in events:
            if event.key.block > sample:
                break
            warnings.extend(apply_event(state, event))
        rows.append(reference_funds_row(state, sample))
    return rows, warnings


def funds_site(series, namespace: dict, name: str, start: GlobalState, events, stride: int):
    """outcome(series, start.copy(), events, stride), with the sample blocks
    whose valuation ``namespace[name]`` raised: the failing sample, or none
    when the failure is a transition's."""
    failed = []
    value = namespace[name]

    def valued(state, block):
        try:
            return value(state, block)
        except (MissingPriceError, DecOverflowError):
            failed.append(block)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(namespace, name, valued)
        return outcome(series, start.copy(), events, stride), failed


def both_funds_sites(start: GlobalState, events, stride: int):
    return (
        funds_site(funds_time_series, vars(plfkit.analytics), "_funds_row", start, events, stride),
        funds_site(reference_funds_time_series, globals(), "reference_funds_row", start, events, stride),
    )


def with_gaps(data, events: list[EventRecord]) -> list[EventRecord]:
    """``events`` in order, each 0 to 9 blocks after the one before (0: the
    next transaction of the same block), so that some blocks have no event."""
    block, tx, keyed = 1, -1, []
    for event in events:
        gap = data.draw(st.integers(0, 9)) if keyed else 0
        block, tx = (block, tx + 1) if gap == 0 else (block + gap, 0)
        keyed.append(replace(event, key=OrderingKey(block, tx, 0)))
    return keyed


class TestFundsTimeSeries:
    def test_hand_fixture_every_block(self):
        rows, _ = funds_time_series(GlobalState.fresh(), hand_fixture(), stride=1)
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
        rows, _ = funds_time_series(GlobalState.fresh(), hand_fixture(), stride=5)
        assert [r.block for r in rows] == [1, 6, 11, 13]
        assert rows[-1].locked_usd == Dec("2830.1")

    def test_no_events_yields_single_zero_row(self):
        assert funds_time_series(GlobalState.fresh(), []) == ([
            FundsRow(0, ZERO, ZERO, ZERO),
        ], [])

    def test_stride_validated(self):
        with pytest.raises(ValueError):
            funds_time_series(GlobalState.fresh(), hand_fixture(), stride=0)

    @pytest.mark.parametrize("stride", [1, 2, 7])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rows_equal_a_fresh_replay_to_each_sample(self, stride, data):
        """Rows, warnings, failure types and failing samples equal the
        reference's on books with streams that skip blocks. A market total
        written near the carrier, a dropped price and re-pricing events at
        the edges make some samples fail."""
        start = data.draw(books())
        symbol = data.draw(st.sampled_from(SYMBOLS))
        edge = data.draw(st.sampled_from(("none", "drop-price", "total_ctoken_supply", "total_borrows")))
        if edge == "drop-price":
            del start.price_table.prices[symbol]
        elif edge != "none":
            huge = data.draw(st.integers(MANTISSA_BOUND >> 24, MANTISSA_BOUND - 1))
            setattr(start.markets[symbol], edge, Dec.from_mantissa(huge))
        events = with_gaps(data, draw_events(data, start, data.draw(st.integers(1, 12)), edges=True))
        assume(events)
        ours, theirs = both_funds_sites(start, events, stride)
        assert ours == theirs

    @pytest.mark.parametrize("stride, site", [
        (1, ("MissingPriceError", [2])),
        (2, ("MissingPriceError", [3])),
        (7, ("ok", [])),  # samples 1 and 5 only
    ])
    def test_mint_before_the_first_price(self, stride, site):
        events = [
            make_event(1, 0, 0, "MarketListed", "DAI",
                       initial_exchange_rate=ONE, initial_collateral_factor=Dec("0.5")),
            make_event(2, 0, 0, "Mint", "DAI", account=ACCT_A,
                       amount_underlying=Dec(10), amount_ctokens=Dec(10)),
            make_event(5, 0, 0, "PriceUpdate", "DAI", price_usd=ONE),
        ]
        ours, theirs = both_funds_sites(GlobalState.fresh(), events, stride)
        assert ours == theirs
        assert (ours[0][0], ours[1]) == site

    @pytest.mark.parametrize("stride", [1, 2, 7])
    def test_supply_near_the_carrier(self, stride):
        # 2**254 cTokens at rate 1 fit the carrier; at price 2 their value does not.
        ctokens = Dec.from_mantissa(2 ** 254)
        events = [
            make_event(1, 0, 0, "MarketListed", "DAI",
                       initial_exchange_rate=ONE, initial_collateral_factor=Dec("0.5")),
            make_event(1, 1, 0, "PriceUpdate", "DAI", price_usd=Dec(2)),
            make_event(3, 0, 0, "Mint", "DAI", account=ACCT_A,
                       amount_underlying=ctokens, amount_ctokens=ctokens),
        ]
        ours, theirs = both_funds_sites(GlobalState.fresh(), events, stride)
        assert ours == theirs
        assert (ours[0][0], ours[1]) == ("DecOverflowError", [3])

    @pytest.mark.parametrize("kind", ["Mint", "Borrow"])
    def test_partial_sum_past_the_carrier_before_a_missing_price(self, kind):
        # Markets are valued in sorted-symbol order, not listing order: the
        # supplied or borrowed sum leaves the carrier at BBB, before unpriced
        # CCC is reached.
        half = Dec.from_mantissa(2 ** 254)
        amounts = {"amount_ctokens": half} if kind == "Mint" else {}
        events = [
            make_event(1, tx, 0, "MarketListed", symbol,
                       initial_exchange_rate=ONE, initial_collateral_factor=Dec("0.5"))
            for tx, symbol in enumerate(("CCC", "AAA", "BBB"))
        ] + [
            make_event(1, 3, 0, "PriceUpdate", "AAA", price_usd=ONE),
            make_event(1, 4, 0, "PriceUpdate", "BBB", price_usd=ONE),
        ] + [
            make_event(2, 0, 0, "Mint", "CCC", account=ACCT_A, amount_underlying=ONE, amount_ctokens=ONE),
        ] + [
            make_event(2, tx, 0, kind, symbol, account=ACCT_A, amount_underlying=half, **amounts)
            for tx, symbol in ((1, "AAA"), (2, "BBB"))
        ]
        ours, theirs = both_funds_sites(GlobalState.fresh(), events, 1)
        assert ours == theirs
        assert (ours[0][0], ours[1]) == ("DecOverflowError", [2])


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


# -- Reference tracker ----------------------------------------------------------
#
# track_efficiency as written before it valued accounts through
# risk.LiquidableCache: one full account_health per dirty account. Kept here
# as the reference the cached valuation must match exactly.


def reference_track_efficiency(
    state: GlobalState, events, full_reeval: bool = False
) -> EfficiencyTimeline:
    timeline = EfficiencyTimeline()
    open_streaks: dict[str, OrderingKey] = {}
    members: dict[str, set[str]] = {}

    for account, holdings in state.participants.items():
        for symbol in holdings:
            members.setdefault(symbol, set()).add(account)
    for account in state.participants:
        if account_health(state, account).liquidable:
            key = state.cursor if state.cursor is not None else OrderingKey(0, 0, 0)
            open_streaks[account] = key

    for event in events:
        payload = event.payload
        timeline.warnings.extend(apply_event(state, event))

        if event.kind == "LiquidateBorrow":
            borrower = payload["borrower"]
            start = open_streaks.pop(borrower, None)
            if start is None:
                record = LiquidationRecord(
                    account=borrower,
                    key=event.key,
                    blocks_elapsed=0,
                    seized_value_usd=_seized_value(state, event),
                    warning=NOT_LIQUIDABLE_WARNING,
                )
                timeline.warnings.append(
                    f"event {event.key.block}:{event.key.tx_index}:{event.key.log_index}: "
                    f"{NOT_LIQUIDABLE_WARNING}: {borrower}"
                )
            else:
                record = LiquidationRecord(
                    account=borrower,
                    key=event.key,
                    blocks_elapsed=event.key.block - start.block,
                    seized_value_usd=_seized_value(state, event),
                )
                timeline.streaks.append(Streak(account=borrower, start=start, end=event.key))
            timeline.liquidations.append(record)

        if full_reeval:
            dirty = set(state.participants)
        elif event.kind in ("Mint", "Redeem", "Borrow", "RepayBorrow"):
            dirty = {payload["account"]}
        elif event.kind == "LiquidateBorrow":
            dirty = {payload["borrower"], payload["liquidator"]}
        elif event.kind in ("AccrueInterest", "NewCollateralFactor", "PriceUpdate"):
            dirty = set(members.get(event.market or "", ()))
        else:
            dirty = set()

        if event.kind in ("Mint", "Redeem", "Borrow", "RepayBorrow"):
            members.setdefault(event.market, set()).add(payload["account"])
        elif event.kind == "LiquidateBorrow":
            members.setdefault(event.market, set()).add(payload["borrower"])
            members.setdefault(payload["collateral_market"], set()).update(
                (payload["borrower"], payload["liquidator"])
            )

        for account in sorted(dirty):
            liquidable = account_health(state, account).liquidable
            if liquidable and account not in open_streaks:
                open_streaks[account] = event.key
            elif not liquidable and account in open_streaks:
                del open_streaks[account]

    for account in sorted(open_streaks):
        timeline.streaks.append(Streak(account=account, start=open_streaks[account], end=None))
    return timeline


def outcome(fn, *args):
    """The result, or the failure as its type and text."""
    try:
        return "ok", fn(*args)
    except (TransitionError, MissingPriceError, DecOverflowError) as exc:
        return type(exc).__name__, str(exc)


def failure_site(track, state, events):
    """outcome(track, state, events), with the accounts whose valuation
    raised: the first failing account when a valuation failed, since the
    failure ends the fold. Valuations are LiquidableCache.liquidable, the
    one exact valuation, for track_efficiency and account_health for the
    reference."""
    failed = set()

    def recording(value):
        def valued(first, account, *rest):
            try:
                return value(first, account, *rest)
            except (MissingPriceError, DecOverflowError):
                failed.add(account)
                raise
        return valued

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LiquidableCache, "liquidable", recording(LiquidableCache.liquidable))
        patch.setitem(globals(), "account_health", recording(account_health))
        return outcome(track, state, events), failed


# -- Random books, events and direct writes --------------------------------------

SYMBOLS = ("AAA", "BBB", "CCC")
ACCOUNTS = tuple(f"0x{i:040x}" for i in range(1, 7))
UNIT = 10 ** 18


def mantissas(low: int, high: int):
    return st.integers(low, high).map(Dec.from_mantissa)


@st.composite
def books(draw):
    """Random three-market books of the shape replay produces.

    Holdings come in random market order, with empty positions, pure
    suppliers and pure borrowers. Market totals equal the position sums,
    so that the events drawn against a book apply. Collateral power and
    debt land within a few times of each other, so that price moves carry
    accounts across the liquidation line.
    """
    state = GlobalState.fresh(ProtocolParams(Dec("0.5")))
    for symbol in SYMBOLS:
        market = MarketState.listed(
            symbol, draw(mantissas(UNIT // 66, UNIT // 40)), draw(mantissas(UNIT * 3 // 5, UNIT * 9 // 10))
        )
        market.borrow_index = draw(mantissas(UNIT, UNIT + UNIT // 10))
        state.markets[symbol] = market
        state.price_table.set(symbol, draw(mantissas(UNIT // 2, 2 * UNIT)))
    for account in draw(st.lists(st.sampled_from(ACCOUNTS), unique=True, min_size=1, max_size=6)):
        holdings = state.participants[account] = {}
        for symbol in draw(st.permutations(SYMBOLS))[: draw(st.integers(0, 3))]:
            market = state.markets[symbol]
            kind = draw(st.sampled_from(("empty", "supply", "borrow", "both")))
            ctokens = draw(st.integers(2000 * UNIT, 8000 * UNIT)) if kind in ("supply", "both") else 0
            principal = draw(st.integers(20 * UNIT, 100 * UNIT)) if kind in ("borrow", "both") else 0
            snapshot = draw(mantissas(UNIT, market.borrow_index.mantissa))
            position = holdings[symbol] = Position(
                Dec.from_mantissa(ctokens), Dec.from_mantissa(principal), snapshot
            )
            market.total_ctoken_supply = market.total_ctoken_supply + position.ctoken_balance
            market.total_borrows = market.total_borrows + position.accrued_borrow(market.borrow_index)
    return state


EVENT_KINDS = (
    "PriceUpdate", "AccrueInterest", "NewCollateralFactor",
    "Mint", "Redeem", "Borrow", "RepayBorrow", "LiquidateBorrow",
)


def draw_event(data, state: GlobalState, block: int) -> EventRecord:
    """One event that applies to ``state``, drawn against its balances."""
    kind = data.draw(st.sampled_from(EVENT_KINDS))
    symbol = data.draw(st.sampled_from(SYMBOLS))
    account = data.draw(st.sampled_from(ACCOUNTS))
    market = state.markets[symbol]
    position = state.position(account, symbol) or Position()
    if kind == "PriceUpdate":
        payload = {"price_usd": data.draw(mantissas(UNIT // 2, 2 * UNIT))}
    elif kind == "NewCollateralFactor":
        payload = {"new_factor": data.draw(mantissas(UNIT // 2, UNIT * 9 // 10))}
    elif kind == "AccrueInterest":
        new_index = market.borrow_index * (ONE + data.draw(mantissas(0, UNIT // 20)))
        interest = ZERO
        for holdings in state.participants.values():
            held = holdings.get(symbol)
            if held is not None:
                interest = interest + held.accrued_borrow(new_index) - held.accrued_borrow(market.borrow_index)
        payload = {
            "new_borrow_index": new_index,
            "new_exchange_rate": market.exchange_rate * (ONE + data.draw(mantissas(0, UNIT // 100))),
            "interest_accumulated_underlying": interest,
        }
    elif kind in ("Mint", "Redeem"):
        limit = 4000 * UNIT if kind == "Mint" else position.ctoken_balance.mantissa
        ctokens = Dec.from_mantissa(data.draw(st.integers(0, limit)))
        payload = {"account": account, "amount_underlying": ctokens * market.exchange_rate,
                   "amount_ctokens": ctokens}
    elif kind == "Borrow":
        payload = {"account": account, "amount_underlying": data.draw(mantissas(0, 60 * UNIT))}
    else:
        accrued = position.accrued_borrow(market.borrow_index).mantissa
        amount = data.draw(mantissas(0, accrued))
        if kind == "RepayBorrow":
            payload = {"account": account, "payer": account, "amount_underlying": amount}
        else:
            collateral_symbol = data.draw(st.sampled_from(SYMBOLS))
            collateral = state.position(account, collateral_symbol) or Position()
            payload = {
                "borrower": account,
                "liquidator": data.draw(st.sampled_from(ACCOUNTS)),
                "repay_amount_underlying": amount,
                "collateral_market": collateral_symbol,
                "seized_ctokens": data.draw(mantissas(0, collateral.ctoken_balance.mantissa)),
            }
    return make_event(block, 0, 0, kind, symbol, **payload)


def draw_events(data, state: GlobalState, count: int, edges: bool = False) -> list[EventRecord]:
    """``count`` events following ``state``'s cursor, each drawn against
    the state the ones before it leave (``state`` itself is untouched).
    With ``edges``, about half are re-pricing events at the edges of the
    cached valuation (draw_edge_event)."""
    sim = state.copy()
    first = 1 if sim.cursor is None else sim.cursor.block + 1
    events = []
    for block in range(first, first + count):
        try:
            if edges and data.draw(st.booleans()):
                event = draw_edge_event(data, sim, block)
            else:
                event = draw_event(data, sim, block)
        except DecOverflowError:
            continue  # values near the carrier: no ordinary event can be drawn against them
        events.append(event)
        try:
            apply_event(sim, event)
        except TransitionError:
            break  # both trackers must then fail on it alike
    return events


POSITION_FIELDS = ("ctoken_balance", "borrow_principal", "borrow_index_snapshot")
MARKET_FIELDS = ("exchange_rate", "collateral_factor", "borrow_index")
WRITES = POSITION_FIELDS + MARKET_FIELDS + ("price", "drop-price", "reorder", "equal-copy", "empty-position")


def draw_write(data, state: GlobalState, extreme: bool = False):
    """One direct write that bypasses the engine, returned as a function so
    that equal states can take the same write. Each of the first seven
    changes exactly one valuation input, often to a tenth to ten times its
    value so that it moves accounts across the line. With ``extreme``,
    values reach the carrier, debts shrink to one mantissa unit and prices
    may vanish, so that valuations overflow, the ratio included, or miss a
    price."""
    what = data.draw(st.sampled_from(WRITES if extreme else WRITES[:7] + WRITES[8:]))
    # Mostly a position the write changes the value of: a non-empty one,
    # or for the index snapshot one with a debt.
    positions = [
        (account, symbol)
        for account, holdings in sorted(state.participants.items())
        for symbol, position in sorted(holdings.items())
        if position.borrow_principal or (what != "borrow_index_snapshot" and position.ctoken_balance)
    ]
    anywhere = st.tuples(st.sampled_from(sorted(state.participants) or ACCOUNTS), st.sampled_from(sorted(state.markets)))
    account, symbol = data.draw(st.sampled_from(positions) | anywhere if positions else anywhere)
    if what in POSITION_FIELDS:
        current = getattr(state.position(account, symbol) or Position(), what)
    elif what in MARKET_FIELDS:
        current = getattr(state.markets[symbol], what)
    else:
        current = state.price_table.prices.get(symbol, ONE)
    # Uniform in the exponent, up to the carrier.
    huge = st.integers(66, 76).flatmap(
        lambda exponent: st.integers(10 ** exponent, min(10 ** (exponent + 1), MANTISSA_BOUND - 1))
    ) if extreme else st.nothing()
    ranges = {
        "ctoken_balance": st.integers(0, 8000 * UNIT) | huge,
        "borrow_principal": st.integers(0, 100 * UNIT) | (st.integers(1, 10) if extreme else st.nothing()) | huge,
        "borrow_index_snapshot": st.integers(UNIT // 2, UNIT + UNIT // 10),
        "exchange_rate": st.integers(UNIT // 66, UNIT // 40) | huge,
        "collateral_factor": st.integers(0, UNIT),
        "borrow_index": st.integers(UNIT, UNIT + UNIT // 5) | huge,
        "price": st.integers(UNIT // 2, 2 * UNIT) | huge,
    }
    value = None
    if what in ranges:
        scaled = st.integers(1, 100).map(
            lambda tenths: min(max(current.mantissa * tenths // 10, 1), MANTISSA_BOUND - 1)
        )
        value = Dec.from_mantissa(data.draw(ranges[what] | scaled))

    def write(target: GlobalState) -> None:
        if what == "price":
            target.price_table.set(symbol, value)
        elif what == "drop-price":
            target.price_table.prices.pop(symbol, None)
        elif what in MARKET_FIELDS:
            setattr(target.markets[symbol], what, value)
        elif what == "reorder":  # the position moves to the end of the holdings
            holdings = target.participants.get(account, {})
            if symbol in holdings:
                holdings[symbol] = holdings.pop(symbol)
        elif what == "equal-copy":  # same values, new objects
            position = target.position(account, symbol)
            if position is not None:
                target.participants[account][symbol] = Position(
                    Dec(str(position.ctoken_balance)), Dec(str(position.borrow_principal)),
                    Dec(str(position.borrow_index_snapshot)),
                )
        elif what == "empty-position":
            target.participants.setdefault(account, {}).setdefault(symbol, Position())
        else:
            setattr(target.participants.setdefault(account, {}).setdefault(symbol, Position()), what, value)

    return write


def flip_price(state: GlobalState, account: str, symbol: str) -> int | None:
    """About the price mantissa of ``symbol`` at which ``account``'s
    surplus changes sign, or None where it has none."""
    try:
        power, borrow, _, terms, missing = _sums(
            state.markets, state.participants[account], state.price_table.prices, symbol
        )
    except (MissingPriceError, DecOverflowError):
        return None
    if terms is None or missing is not None or terms[1] == terms[2]:
        return None
    price = (borrow - power) * SCALE // (terms[1] - terms[2])
    return price if price > 0 else None


EDGES = ("flip-price", "index-step", "zero-factor", "near-carrier")


def draw_edge_event(data, state: GlobalState, block: int) -> EventRecord:
    """A re-pricing event at an edge of the cached valuation: a price within
    a few mantissa units of a holder's flip price, a borrow index one unit
    up, a collateral factor of 0, or an input near the carrier."""
    edge = data.draw(st.sampled_from(EDGES))
    symbol = data.draw(st.sampled_from(sorted(state.markets)))
    market = state.markets[symbol]
    if edge == "flip-price":
        flips = [
            price for account, holdings in sorted(state.participants.items())
            if symbol in holdings and (price := flip_price(state, account, symbol)) is not None
        ]
        if flips:
            price = data.draw(st.sampled_from(flips)) + data.draw(st.integers(-4, 4))
            return make_event(block, 0, 0, "PriceUpdate", symbol, price_usd=Dec.from_mantissa(max(price, 1)))
        edge = "index-step"
    if edge == "index-step":
        return make_event(
            block, 0, 0, "AccrueInterest", symbol,
            new_borrow_index=Dec.from_mantissa(market.borrow_index.mantissa + 1),
            new_exchange_rate=Dec.from_mantissa(market.exchange_rate.mantissa + data.draw(st.integers(0, 1))),
            interest_accumulated_underlying=ZERO,
        )
    if edge == "zero-factor":
        return make_event(block, 0, 0, "NewCollateralFactor", symbol, new_factor=ZERO)
    huge = Dec.from_mantissa(data.draw(st.integers(66, 76).flatmap(
        lambda exponent: st.integers(10 ** exponent, min(10 ** (exponent + 1), MANTISSA_BOUND - 1))
    )))
    kind = data.draw(st.sampled_from(("PriceUpdate", "index", "rate", "NewCollateralFactor")))
    if kind == "PriceUpdate":
        return make_event(block, 0, 0, kind, symbol, price_usd=huge)
    if kind == "NewCollateralFactor":
        return make_event(block, 0, 0, kind, symbol, new_factor=huge)
    return make_event(
        block, 0, 0, "AccrueInterest", symbol,
        new_borrow_index=huge if kind == "index" else market.borrow_index,
        new_exchange_rate=huge if kind == "rate" else market.exchange_rate,
        interest_accumulated_underlying=ZERO,
    )


BUDGET_KINDS = ("ratio", "small-debt", "dust-debt", "near-carrier")


@st.composite
def budget_walks(draw):
    """A book at the edges of a per-market movement budget, and a long
    stream of small moves across it: (state, events).

    Accounts sit at power/borrow 1.001-1.05, owe just over 1 USD, owe a
    few mantissa units against a power whose ratio to the debt is near the
    carrier, or hold collateral near the carrier. The moves walk one
    market, or alternate across two or three, in steps of one mantissa
    unit or 20 bps: prices, borrow indices and exchange rates, and
    collateral factors, which may drop to 0. The third market may be
    listed mid-stream and taken up by a supplier and a borrower. A few
    small borrows write accounts between the moves.
    """
    state = GlobalState.fresh(ProtocolParams(Dec("0.5")))
    late = draw(st.booleans())  # CCC is listed mid-stream
    for symbol in SYMBOLS[:2] if late else SYMBOLS:
        market = state.markets[symbol] = MarketState.listed(
            symbol, draw(mantissas(UNIT // 60, UNIT // 40)), draw(mantissas(UNIT * 3 // 5, UNIT))
        )
        market.borrow_index = draw(mantissas(UNIT, UNIT + UNIT // 20))
        state.price_table.set(symbol, Dec.from_mantissa(draw(st.integers(1, 4000)) * UNIT))
    listed = sorted(state.markets)
    carriers = 0
    for account in draw(st.lists(st.sampled_from(ACCOUNTS), unique=True, min_size=2, max_size=6)):
        kind = draw(st.sampled_from(BUDGET_KINDS))
        if kind == "near-carrier":
            carriers += 1
            kind = kind if carriers <= 2 else "ratio"
        supplied, owed = draw(st.sampled_from(listed)), draw(st.sampled_from(listed))
        collateral, debt = state.markets[supplied], state.markets[owed]
        rate_price = collateral.exchange_rate.mantissa * state.price_table.get(supplied).mantissa
        if kind == "near-carrier":
            target = MANTISSA_BOUND - MANTISSA_BOUND * draw(st.integers(1, 200)) // 10_000
            ctokens = min(target * UNIT * UNIT // rate_price, MANTISSA_BOUND // 8)
        elif kind == "dust-debt":
            # A principal of a few units; power such that power / debt is
            # 20-99% of the carrier.
            dust = draw(st.integers(1, 50))
            owed_value = max(trunc_mul(dust, state.price_table.get(owed).mantissa), 1)
            target = MANTISSA_BOUND * owed_value * draw(st.integers(20, 99)) // (100 * UNIT)
            ctokens = min(target * UNIT ** 3 // (rate_price * collateral.collateral_factor.mantissa),
                          MANTISSA_BOUND // 8)
        else:
            ctokens = draw(st.integers(100, 100_000)) * UNIT
        position = Position(Dec.from_mantissa(ctokens))
        power = trunc_mul(trunc_mul(trunc_mul(ctokens, collateral.exchange_rate.mantissa),
                                    collateral.collateral_factor.mantissa),
                          state.price_table.get(supplied).mantissa)
        if kind == "dust-debt":
            principal = dust
        else:
            if kind == "small-debt":
                owed_usd = draw(st.integers(UNIT, 5 * UNIT // 2))
            else:
                owed_usd = power * 1000 // draw(st.integers(1001, 1050))
            principal = min(owed_usd * UNIT // state.price_table.get(owed).mantissa, MANTISSA_BOUND // 8)
        holdings = state.participants[account] = {supplied: position}
        if owed == supplied:
            position.borrow_principal = Dec.from_mantissa(principal)
            position.borrow_index_snapshot = debt.borrow_index
        else:
            holdings[owed] = Position(ZERO, Dec.from_mantissa(principal), debt.borrow_index)
        collateral.total_ctoken_supply = collateral.total_ctoken_supply + position.ctoken_balance
        debt.total_borrows = debt.total_borrows + Dec.from_mantissa(principal)

    sim = state.copy()
    walked = draw(st.lists(st.sampled_from(SYMBOLS), unique=True, min_size=1, max_size=3))
    directions = {symbol: draw(st.sampled_from((-1, 1))) for symbol in SYMBOLS}
    bps = draw(st.booleans())  # the walk's usual step: 20 bps, or one unit
    listing_at = draw(st.integers(0, 30)) if late else None
    events, turn = [], 0
    for block in range(1, draw(st.integers(20, 150)) + 1):
        if block - 1 == listing_at:
            events += [
                make_event(block, 0, 0, "MarketListed", "CCC", initial_exchange_rate=Dec("0.02"),
                           initial_collateral_factor=draw(mantissas(UNIT // 2, UNIT))),
                make_event(block, 1, 0, "PriceUpdate", "CCC", price_usd=Dec(draw(st.integers(1, 4000)))),
            ]
            supplier, borrower = draw(st.sampled_from(ACCOUNTS)), draw(st.sampled_from(ACCOUNTS))
            ctokens = Dec(draw(st.integers(100, 100_000)))
            events += [
                make_event(block, 2, 0, "Mint", "CCC", account=supplier,
                           amount_underlying=ctokens * Dec("0.02"), amount_ctokens=ctokens),
                make_event(block, 3, 0, "Borrow", "CCC", account=borrower,
                           amount_underlying=Dec(draw(st.integers(1, 100)))),
            ]
            for event in events[-4:]:
                apply_event(sim, event)
            continue
        moving = [symbol for symbol in walked if symbol in sim.markets] or sorted(sim.markets)
        symbol = moving[turn % len(moving)]
        turn += 1
        if draw(st.integers(0, 19)) == 0:
            directions[symbol] = -directions[symbol]
        market = sim.markets[symbol]

        def stepped(value: Dec) -> Dec:
            unit = value.mantissa * 2 // 1000 if bps and draw(st.integers(0, 9)) else 1
            return Dec.from_mantissa(max(value.mantissa + directions[symbol] * unit, 1))

        what = draw(st.sampled_from(("price", "price", "price", "accrue", "factor", "borrow")))
        if what == "price":
            event = make_event(block, 0, 0, "PriceUpdate", symbol, price_usd=stepped(sim.price_table.get(symbol)))
        elif what == "accrue":
            event = make_event(block, 0, 0, "AccrueInterest", symbol, new_borrow_index=stepped(market.borrow_index),
                               new_exchange_rate=stepped(market.exchange_rate), interest_accumulated_underlying=ZERO)
        elif what == "factor":
            factor = ZERO if draw(st.integers(0, 4)) == 0 else stepped(market.collateral_factor)
            event = make_event(block, 0, 0, "NewCollateralFactor", symbol, new_factor=factor)
        else:
            event = make_event(block, 0, 0, "Borrow", symbol, account=draw(st.sampled_from(ACCOUNTS)),
                               amount_underlying=Dec.from_mantissa(draw(st.integers(1, 2 * UNIT))))
        events.append(event)
        try:
            apply_event(sim, event)
        except TransitionError:
            break  # a write past the carrier: both trackers must then fail on it alike
    return state, events


def generated_stream(seed: int, event_count: int, accounts: int) -> list[EventRecord]:
    with tempfile.TemporaryDirectory() as tmp:
        generate(default_spec(seed, event_count, accounts), f"{tmp}/s.jsonl", f"{tmp}/s.json")
        return read_events(f"{tmp}/s.jsonl")


def negative_rate(state: GlobalState, symbol: str) -> GlobalState:
    """``state`` with ``symbol``'s exchange rate at -1, which no parsed event
    sets: its collateral terms turn negative."""
    state.markets[symbol].exchange_rate = Dec(-1)
    return state


def failing_book(*holdings: tuple[str, int, int, int, int | None]) -> GlobalState:
    """One account's positions, each (symbol, ctokens, principal, factor,
    price) in mantissas, at exchange rate and borrow index 1. A price of
    None leaves the market unpriced."""
    state = GlobalState.fresh()
    positions = state.participants[ACCT_A] = {}
    for symbol, ctokens, principal, factor, price in holdings:
        state.markets[symbol] = MarketState.listed(symbol, ONE, Dec.from_mantissa(factor))
        if price is not None:
            state.price_table.set(symbol, Dec.from_mantissa(price))
        positions[symbol] = Position(Dec.from_mantissa(ctokens), Dec.from_mantissa(principal))
    return state


def assert_skipped_holders_keep_their_sign(state: GlobalState, events) -> None:
    """Fold ``events`` into ``state`` with LiquidableCache told of every
    event, valuing the accounts its ``changed`` returns. After every event,
    each account valued before and left out must still have the sign of its
    last valuation, and a fresh account_health of it must pass every check.
    Stops at the first valuation or transition that fails."""
    cache = LiquidableCache(state)
    signs = {}

    def observe(event, warnings, accounts, repriced):
        dirty = cache.changed(accounts, repriced)
        for account in dirty:
            signs[account] = cache.liquidable(account)
        for account, sign in signs.items():
            if account not in dirty:
                fresh = outcome(lambda: account_health(state, account).liquidable)
                assert fresh == ("ok", sign), (event, account)

    try:
        for account in sorted(state.participants):
            signs[account] = cache.liquidable(account)
        _fold(state, events, ReplayReport(), observe)
    except (TransitionError, MissingPriceError, DecOverflowError):
        pass


class TestLiquidableCacheFailures:
    """Where account_health fails, the cached valuation fails alike."""

    @pytest.mark.parametrize("state,failure", [
        # Power 10^50 against a debt of 10^-18: only the ratio overflows.
        (failing_book(("DAI", 10 ** 68, 1, UNIT, UNIT)), "DecOverflowError"),
        # Each collateral term is 0.6 of the carrier, so their sum leaves
        # it; power, at factor 0.1, stays inside.
        (failing_book(("DAI", 3 * 10 ** 76, 0, UNIT // 10, UNIT),
                      ("ETH", 3 * 10 ** 76, 0, UNIT // 10, UNIT)), "DecOverflowError"),
        # A term that overflows before a missing price, and after one.
        (failing_book(("DAI", 10 ** 68, 0, UNIT, 10 ** 48), ("ETH", UNIT, 0, UNIT, None)),
         "DecOverflowError"),
        (failing_book(("ETH", UNIT, 0, UNIT, None), ("DAI", 10 ** 68, 0, UNIT, 10 ** 48)),
         "MissingPriceError"),
        # An empty position needs no price.
        (failing_book(("ETH", 0, 0, UNIT, None), ("DAI", UNIT, UNIT, UNIT, UNIT)), "ok"),
    ], ids=["ratio", "collateral-sum", "overflow-first", "missing-price-first", "empty-unpriced"])
    def test_fails_where_account_health_fails(self, state, failure):
        expected = outcome(lambda: account_health(state, ACCT_A).liquidable)
        assert expected[0] == failure
        cache = LiquidableCache(state)
        assert outcome(cache.liquidable, ACCT_A) == expected
        assert outcome(cache.liquidable, ACCT_A) == expected  # and again, from the cache

    def test_tracking_fails_like_the_reference(self):
        state = failing_book(("DAI", 10 ** 68, 1, UNIT, UNIT))
        state.participants[ACCT_B] = {"ETH": Position(Dec(1))}  # ETH is unpriced
        state.markets["ETH"] = MarketState.listed("ETH", ONE, ONE)
        events = [make_event(1, 0, 0, "PriceUpdate", "DAI", price_usd=Dec(2))]
        assert outcome(track_efficiency, state.copy(), events) == outcome(
            reference_track_efficiency, state.copy(), events
        )

    @pytest.mark.parametrize("state,events", [
        # A debt re-priced to 10^-18 against power 10^50: only the ratio
        # overflows.
        (failing_book(("DAI", 10 ** 68, 0, UNIT, UNIT), ("ETH", 0, UNIT, UNIT, UNIT)),
         [make_event(1, 0, 0, "PriceUpdate", "ETH", price_usd=Dec.from_mantissa(1))]),
        # Each collateral term re-priced to 0.52 of the carrier: their sum
        # leaves it, each product fits.
        (failing_book(("DAI", 3 * 10 ** 76, 0, UNIT // 10, UNIT),
                      ("ETH", 3 * 10 ** 76, 0, UNIT // 10, UNIT // 1000)),
         [make_event(1, 0, 0, "PriceUpdate", "ETH", price_usd=ONE)]),
        # Collateral terms 0.6, 0.6 and -0.52 of the carrier in holdings
        # order: the total fits, the second partial sum does not.
        (negative_rate(failing_book(("X", 35 * 10 ** 75, 0, UNIT // 10, UNIT),
                                    ("M", 35 * 10 ** 75, 0, UNIT // 10, UNIT // 1000),
                                    ("Y", 3 * 10 ** 76, 0, UNIT // 10, UNIT)), "Y"),
         [make_event(1, 0, 0, "PriceUpdate", "M", price_usd=ONE)]),
        # The same, with the negative term made by a re-pricing event.
        (failing_book(("X", 35 * 10 ** 75, 0, UNIT // 10, UNIT),
                      ("N", 35 * 10 ** 75, 0, UNIT // 10, UNIT // 1000),
                      ("M", 3 * 10 ** 73, 0, UNIT // 10, UNIT)),
         [make_event(1, 0, 0, "AccrueInterest", "M", new_borrow_index=ONE, new_exchange_rate=Dec(-1000),
                     interest_accumulated_underlying=ZERO),
          make_event(2, 0, 0, "PriceUpdate", "N", price_usd=ONE)]),
    ], ids=["ratio", "collateral-sum", "partial-sum-past-negative-term", "negative-term-from-an-event"])
    def test_repriced_holder_fails_like_the_reference(self, state, events):
        # The book values without failure; the re-pricing makes it fail.
        assert outcome(account_health, state, ACCT_A)[0] == "ok"
        expected = failure_site(reference_track_efficiency, state.copy(), events)
        assert expected == (("DecOverflowError", "mantissa exceeds the signed 256-bit carrier"), {ACCT_A})
        assert failure_site(track_efficiency, state.copy(), events) == expected


class TestCachedValuationAgainstReference:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(120, 320), st.integers(3, 8), st.data())
    def test_generated_streams(self, seed, event_count, accounts, data):
        events = generated_stream(seed, event_count, accounts)
        assert track_efficiency(GlobalState.fresh(), events) == reference_track_efficiency(
            GlobalState.fresh(), events
        )
        assert_skipped_holders_keep_their_sign(GlobalState.fresh(), events)
        # Resumed from a mid-stream state, itself copied or written to.
        cut = data.draw(st.integers(0, len(events)))
        state, _ = replay(GlobalState.fresh(), events[:cut])
        between = data.draw(st.sampled_from(("copy", "write")))
        if between == "copy":
            state = state.copy()
        elif state.markets:
            draw_write(data, state)(state)
        other = state.copy()
        assert_skipped_holders_keep_their_sign(state.copy(), events[cut:])
        assert outcome(track_efficiency, state, events[cut:]) == outcome(
            reference_track_efficiency, other, events[cut:]
        )

    @settings(max_examples=200, deadline=None)
    @given(books(), st.data())
    def test_hand_built_books(self, book, data):
        ours, theirs = book.copy(), book.copy()
        for _ in range(3):
            events = draw_events(data, ours, data.draw(st.integers(0, 10)))
            assert_skipped_holders_keep_their_sign(ours.copy(), events)
            assert outcome(track_efficiency, ours, events) == outcome(
                reference_track_efficiency, theirs, events
            )
            between = data.draw(st.sampled_from(("none", "copy", "write")))
            if between == "copy":
                ours, theirs = ours.copy(), theirs.copy()
            elif between == "write":
                write = draw_write(data, ours)
                write(ours)
                write(theirs)

    @settings(max_examples=300, deadline=None)
    @given(books(), st.booleans(), st.data())
    def test_cached_sign_equals_fresh_valuation_after_every_step(self, book, extreme, data):
        cache = LiquidableCache(book)
        block = 1
        for _ in range(data.draw(st.integers(1, 20))):
            if data.draw(st.booleans()):
                draw_write(data, book, extreme)(book)
            else:
                try:
                    apply_event(book, draw_event(data, book, block))
                except TransitionError:
                    pass  # the state may hold a partial write; it must still agree
                except DecOverflowError:
                    pass  # extreme values: no event could be drawn against them
                block += 1
            for account in sorted(book.participants):
                assert outcome(cache.liquidable, account) == outcome(
                    lambda name: account_health(book, name).liquidable, account
                )

    @settings(max_examples=300, deadline=None)
    @given(books(), st.data())
    def test_edges_of_the_movement_budget(self, book, data):
        """Re-pricing at the edges of LiquidableCache's movement budgets:
        prices a few units from a flip price, borrow index steps of one
        unit, a zero collateral factor and inputs near the carrier, on
        states copied or written to (extreme writes included) before each
        fold. The results, failure types and first failing accounts equal
        the reference's, and every holder a move leaves out keeps its sign
        (which a timeline cannot show when the sign flips back unseen)."""
        ours, theirs = book.copy(), book.copy()
        for _ in range(data.draw(st.integers(1, 3))):
            before = data.draw(st.sampled_from(("none", "copy", "write", "extreme-write")))
            if before == "copy":
                ours, theirs = ours.copy(), theirs.copy()
            elif before != "none":
                write = draw_write(data, ours, extreme=before == "extreme-write")
                write(ours)
                write(theirs)
            events = draw_events(data, ours, data.draw(st.integers(1, 8)), edges=True)
            assert_skipped_holders_keep_their_sign(ours.copy(), events)
            result = failure_site(track_efficiency, ours, events)
            assert result == failure_site(reference_track_efficiency, theirs, events)
            if result[0][0] != "ok":
                break

    @settings(max_examples=150, deadline=None)
    @given(budget_walks())
    def test_movement_budget_edges(self, walk):
        """Long walks of small moves on books at the edges of a movement
        budget (budget_walks): the results, failure types and first failing
        accounts equal the reference's, and --full-reeval agrees."""
        book, events = walk
        result = failure_site(track_efficiency, book.copy(), events)
        assert result == failure_site(reference_track_efficiency, book.copy(), events)
        assert outcome(track_efficiency, book.copy(), events, True) == result[0]

    @settings(max_examples=150, deadline=None)
    @given(budget_walks())
    def test_holders_a_move_leaves_out_keep_their_sign(self, walk):
        book, events = walk
        assert_skipped_holders_keep_their_sign(book, events)

    @settings(max_examples=150, deadline=None)
    @given(books(), st.data())
    def test_holders_an_edge_move_leaves_out_keep_their_sign(self, book, data):
        events = draw_events(data, book, data.draw(st.integers(1, 20)), edges=True)
        assert_skipped_holders_keep_their_sign(book, events)

    @staticmethod
    def sinking_walk() -> tuple[GlobalState, list[EventRecord]]:
        """20.4 cETH at rate 1, factor 0.5 and 100 USD against 1,000 DAI
        of debt (power / borrow 1.02), then twenty ETH drops of 0.2%: the
        account turns liquidable at the tenth."""
        book = failing_book(("ETH", 204 * UNIT // 10, 0, UNIT // 2, 100 * UNIT), ("DAI", 0, 1000 * UNIT, UNIT, UNIT))
        price, events = Dec(100), []
        for block in range(1, 21):
            price = price * Dec("0.998")
            events.append(make_event(block, 0, 0, "PriceUpdate", "ETH", price_usd=price))
        return book, events

    def test_holders_kept_out_by_a_sound_budget_keep_their_sign(self):
        assert_skipped_holders_keep_their_sign(*self.sinking_walk())

    def test_an_oversized_budget_is_caught(self, monkeypatch):
        # Eight times each budget carries the account past its flip
        # unvalued; the sign check sees it.
        budget = plfkit.risk._budget

        def oversized(*args):
            size, held = budget(*args)
            return 8 * size, held

        monkeypatch.setattr(plfkit.risk, "_budget", oversized)
        with pytest.raises(AssertionError):
            assert_skipped_holders_keep_their_sign(*self.sinking_walk())

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(120, 320), st.integers(3, 8))
    def test_cached_sign_equals_fresh_valuation_on_generated_streams(self, seed, event_count, accounts):
        state = GlobalState.fresh()
        cache = LiquidableCache(state)
        for event in generated_stream(seed, event_count, accounts):
            apply_event(state, event)
            for account in sorted(state.participants):
                assert cache.liquidable(account) == account_health(state, account).liquidable


class TestExactValuationCount:
    """Exact valuations are counted, not timed. LiquidableCache.liquidable
    is the one exact valuation: after each event it values the accounts
    the event wrote, and the holders of a market the event re-priced whose
    movement budget the move used up. Every other holder is not touched."""

    @staticmethod
    def exact_valuations(monkeypatch, events) -> int:
        calls = []
        liquidable = LiquidableCache.liquidable

        def counting(cache, account):
            calls.append(account)
            return liquidable(cache, account)

        monkeypatch.setattr(LiquidableCache, "liquidable", counting)
        track_efficiency(GlobalState.fresh(), events)
        return len(calls)

    def test_profile_stream(self, monkeypatch):
        # The 4 Mints, 4 Borrows and 4 LiquidateBorrows write 16 accounts;
        # each of the 4 price drops uses up its victim's budget. Deciding
        # re-priced holders from their cached sums took 16 full valuations
        # and 4 re-priced terms.
        assert self.exact_valuations(monkeypatch, cdf_profile_stream()) == 20

    def test_no_more_than_events_on_a_generated_stream(self, monkeypatch):
        # 246 for these 400 events. Deciding every re-priced holder from its
        # cached sums took 242 full valuations and 857 re-priced terms
        # (1,099 in all).
        events = generated_stream(7, 400, 8)
        assert self.exact_valuations(monkeypatch, events) == 246 <= len(events)


class TestFundsValuationCount:
    """Sample valuations are counted, not timed: funds_time_series values a
    sample only when its slice of the stream applied an event."""

    @staticmethod
    def valued_and_reached(monkeypatch, events, stride) -> tuple[list[int], list[int]]:
        valued = []
        value = plfkit.analytics._funds_row

        def counting(state, block):
            valued.append(block)
            return value(state, block)

        monkeypatch.setattr(plfkit.analytics, "_funds_row", counting)
        rows, _ = funds_time_series(GlobalState.fresh(), events, stride)
        blocks = [event.key.block for event in events]
        samples = [row.block for row in rows]
        reached = [
            sample for before, sample in zip([None, *samples], samples)
            if any((before is None or before < block) and block <= sample for block in blocks)
        ]
        return valued, reached

    def test_hand_fixture(self, monkeypatch):
        # An event in every block from 1 to 13: every sample is reached.
        valued, reached = self.valued_and_reached(monkeypatch, hand_fixture(), 1)
        assert len(valued) == 13 and valued == reached

    def test_generated_stream_with_unreached_samples(self, monkeypatch):
        # 196 of the 291 samples are reached; 95 repeat the row before them.
        valued, reached = self.valued_and_reached(monkeypatch, generated_stream(7, 400, 8), 1)
        assert len(valued) == 196 and valued == reached
