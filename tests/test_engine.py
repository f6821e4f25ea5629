import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plfkit
from plfkit.analytics import funds_time_series, track_efficiency
from plfkit.engine import (
    ReplayError,
    TransitionError,
    apply_event,
    replay,
    state_digest,
)
from plfkit.cli import main
from plfkit.events import EventRecord, OrderingKey, write_events
from plfkit.fixedpoint import MANTISSA_BOUND, ONE, ZERO, Dec
from plfkit.model import GlobalState, Position, validate_state
from streams import ACCT_A, ACCT_B, ACCT_C, HAND_FINAL, hand_fixture, make_event

HUGE = Dec("9" * 58)  # six of these overflow the carrier, five do not


def replayed() -> GlobalState:
    state, _ = replay(GlobalState.fresh(), hand_fixture())
    return state


def listed_state() -> GlobalState:
    """Minimal one-market state for single-event checks."""
    state = GlobalState.fresh()
    replay(state, hand_fixture()[:7])  # through both mints
    return state


class TestHandFixtureReplay:
    """End-state of the worked twenty-event stream, frozen by hand."""

    def test_replay_is_clean(self):
        state, report = replay(GlobalState.fresh(), hand_fixture())
        assert report.events_applied == 20
        assert report.warnings == []
        assert state.cursor == OrderingKey(13, 1, 0)
        assert report.digest == state_digest(state)

    def test_market_aggregates(self):
        state = replayed()
        assert state.markets["DAI"].total_ctoken_supply == HAND_FINAL["dai_supply"]
        assert state.markets["ETH"].total_ctoken_supply == HAND_FINAL["eth_supply"]
        assert state.markets["DAI"].total_borrows == HAND_FINAL["dai_borrows"]
        assert state.markets["ETH"].total_borrows == HAND_FINAL["eth_borrows"]
        assert state.markets["DAI"].borrow_index == Dec("1.1")
        assert state.markets["DAI"].exchange_rate == Dec("0.0202")
        assert state.markets["ETH"].exchange_rate == Dec("0.0505")

    def test_positions(self):
        state = replayed()
        a_dai = state.position(ACCT_A, "DAI")
        a_eth = state.position(ACCT_A, "ETH")
        b_eth = state.position(ACCT_B, "ETH")
        assert a_dai.ctoken_balance == HAND_FINAL["a_cdai"]
        assert a_dai.borrow_principal == HAND_FINAL["a_dai_principal"]
        assert a_dai.borrow_index_snapshot == HAND_FINAL["a_dai_snapshot"]
        assert a_eth.ctoken_balance == HAND_FINAL["a_ceth"]
        assert b_eth.ctoken_balance == HAND_FINAL["b_ceth"]

    def test_protocol_params_and_governance(self):
        state = replayed()
        assert state.params.close_factor == Dec("0.5")
        assert state.markets["DAI"].interest_model.model_id == "jump-rate-v2"
        assert state.markets["DAI"].interest_model.params == {
            "base": Dec("0.02"), "slope": Dec("0.15"),
        }
        assert state.price_table.get("ETH") == Dec(60)

    def test_aggregates_match_positions(self):
        assert validate_state(replayed()) == []

    def test_accrued_balance_lookup(self):
        state = replayed()
        pos = state.position(ACCT_B, "DAI")
        # B never repaid: 100 at snapshot 1 brought to index 1.1.
        assert pos.accrued_borrow(state.markets["DAI"].borrow_index) == Dec(110)


class TestCursor:
    def test_replaying_same_event_twice_fails(self):
        state = GlobalState.fresh()
        event = hand_fixture()[0]
        apply_event(state, event)
        with pytest.raises(TransitionError, match="strictly increasing"):
            apply_event(state, event)

    def test_lower_key_fails(self):
        state = replayed()
        with pytest.raises(TransitionError):
            apply_event(state, make_event(5, 0, 0, "PriceUpdate", "DAI", price_usd=ONE))

    def test_cursor_advances_per_event(self):
        state = GlobalState.fresh()
        for event in hand_fixture()[:5]:
            apply_event(state, event)
            assert state.cursor == event.key


class TestTransitions:
    def test_duplicate_listing_rejected(self):
        state = listed_state()
        with pytest.raises(TransitionError, match="already listed"):
            apply_event(state, make_event(20, 0, 0, "MarketListed", "DAI",
                                          initial_exchange_rate=Dec("0.02"),
                                          initial_collateral_factor=Dec("0.5")))

    def test_unknown_market_rejected(self):
        state = listed_state()
        with pytest.raises(TransitionError, match="unknown market"):
            apply_event(state, make_event(20, 0, 0, "Borrow", "XYZ",
                                          account=ACCT_A, amount_underlying=ONE))

    def test_mint_amount_drift_warns(self):
        state = listed_state()
        # 500 cDAI at rate 0.02 should cost 10 underlying, not 11.
        warnings = apply_event(state, make_event(20, 0, 0, "Mint", "DAI",
                                                 account=ACCT_A,
                                                 amount_underlying=Dec(11),
                                                 amount_ctokens=Dec(500)))
        assert len(warnings) == 1
        assert "disagree with exchange rate" in warnings[0]
        assert state.position(ACCT_A, "DAI").ctoken_balance == Dec(1000)

    def test_mint_within_one_ctoken_unit_is_silent(self):
        # The tolerance band is one cToken mantissa unit valued at the
        # exchange rate; sitting exactly on the boundary stays quiet.
        state = listed_state()
        ctokens = Dec(500) + Dec.from_mantissa(1)
        warnings = apply_event(state, make_event(20, 0, 0, "Mint", "DAI",
                                                 account=ACCT_A,
                                                 amount_underlying=Dec(10),
                                                 amount_ctokens=ctokens))
        assert warnings == []

    def test_redeem_overdraw_rejected_without_mutation(self):
        state = listed_state()
        before = state_digest(state)
        with pytest.raises(TransitionError, match="exceeds balance"):
            apply_event(state, make_event(20, 0, 0, "Redeem", "DAI",
                                          account=ACCT_A,
                                          amount_underlying=Dec("10.02"),
                                          amount_ctokens=Dec(501)))
        assert state_digest(state) == before

    def test_redeem_by_stranger_rejected(self):
        state = listed_state()
        with pytest.raises(TransitionError, match="exceeds balance"):
            apply_event(state, make_event(20, 0, 0, "Redeem", "DAI",
                                          account="0x" + "99" * 20,
                                          amount_underlying=Dec("0.02"),
                                          amount_ctokens=ONE))

    def test_zero_redeem_by_stranger_is_a_no_op(self):
        # 0 <= 0 passes the balance check; no position exists to debit.
        state = listed_state()
        stranger = "0x" + "99" * 20
        supply = state.markets["DAI"].total_ctoken_supply
        warnings = apply_event(state, make_event(20, 0, 0, "Redeem", "DAI",
                                                 account=stranger,
                                                 amount_underlying=ZERO,
                                                 amount_ctokens=ZERO))
        assert warnings == []
        assert state.position(stranger, "DAI") is None
        assert stranger not in state.participants
        assert state.markets["DAI"].total_ctoken_supply == supply
        assert state.cursor == OrderingKey(20, 0, 0)

    def test_zero_seizure_from_stranger_is_applied(self):
        # Same shape as the zero redeem: 0 <= 0 passes the seizure check
        # although the borrower holds no collateral position.
        state = listed_state()
        stranger = "0x" + "99" * 20
        apply_event(state, make_event(20, 0, 0, "LiquidateBorrow", "DAI",
                                      borrower=stranger, liquidator=ACCT_B,
                                      repay_amount_underlying=ZERO,
                                      collateral_market="ETH", seized_ctokens=ZERO))
        assert state.position(stranger, "ETH") is None
        assert state.cursor == OrderingKey(20, 0, 0)
        assert validate_state(state) == []

    def test_zero_redeem_by_stranger_under_optimize_flag(self, tmp_path):
        # Under -O asserts vanish, so control flow must not rest on one.
        script = tmp_path / "zero_redeem.py"
        script.write_text(
            "import sys\n"
            "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "from plfkit.engine import apply_event, replay\n"
            "from plfkit.fixedpoint import ZERO\n"
            "from plfkit.model import GlobalState\n"
            "from streams import hand_fixture, make_event\n"
            "state = GlobalState.fresh()\n"
            "replay(state, hand_fixture()[:7])\n"
            "apply_event(state, make_event(20, 0, 0, 'Redeem', 'DAI', account='0x' + '99' * 20,\n"
            "                              amount_underlying=ZERO, amount_ctokens=ZERO))\n"
            "print(state.cursor.block, '0x' + '99' * 20 in state.participants)\n"
        )
        src = os.path.dirname(os.path.dirname(plfkit.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        proc = subprocess.run([sys.executable, "-O", str(script), src, tests],
                              capture_output=True, text=True, timeout=60)
        assert proc.stderr == ""
        assert proc.returncode == 0
        assert proc.stdout == "20 False\n"

    def test_borrow_folds_interest_before_adding(self):
        state = GlobalState.fresh()
        replay(state, hand_fixture()[:10])  # through the block-4 accrual
        apply_event(state, make_event(20, 0, 0, "Borrow", "DAI",
                                      account=ACCT_B, amount_underlying=Dec(10)))
        pos = state.position(ACCT_B, "DAI")
        # 100 at index 1 grows to 110 before the new 10 lands.
        assert pos.borrow_principal == Dec(120)
        assert pos.borrow_index_snapshot == Dec("1.1")

    def test_repay_overshoot_by_dust_is_silent(self):
        state = GlobalState.fresh()
        replay(state, hand_fixture()[:10])
        overshoot = Dec(110) + Dec.from_mantissa(1)
        warnings = apply_event(state, make_event(20, 0, 0, "RepayBorrow", "DAI",
                                                 account=ACCT_B, payer=ACCT_B,
                                                 amount_underlying=overshoot))
        assert warnings == []
        assert state.position(ACCT_B, "DAI").borrow_principal == ZERO

    def test_repay_overshoot_beyond_dust_warns_and_clamps(self):
        state = GlobalState.fresh()
        replay(state, hand_fixture()[:10])
        warnings = apply_event(state, make_event(20, 0, 0, "RepayBorrow", "DAI",
                                                 account=ACCT_B, payer=ACCT_B,
                                                 amount_underlying=Dec(111)))
        assert len(warnings) == 1
        assert "clamped to zero" in warnings[0]
        assert state.position(ACCT_B, "DAI").borrow_principal == ZERO

    def test_repay_underflowing_market_total_rejected(self):
        # Clamp the only borrower to zero, then a phantom repayment from a
        # second account would push total borrows negative beyond slack.
        state = GlobalState.fresh()
        replay(state, hand_fixture()[:8])  # A borrowed 5, B not yet
        apply_event(state, make_event(20, 0, 0, "RepayBorrow", "DAI",
                                      account=ACCT_A, payer=ACCT_A,
                                      amount_underlying=Dec(5)))
        with pytest.raises(TransitionError, match="negative beyond"):
            apply_event(state, make_event(21, 0, 0, "RepayBorrow", "DAI",
                                          account=ACCT_B, payer=ACCT_B,
                                          amount_underlying=Dec(3)))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
    def test_repay_by_a_non_borrower_keeps_total_borrows_in_step(self):
        # A owes 2 mantissa units of ETH; B, who owes nothing, repays 1 unit
        # twice. Each repay is within the dust allowance, but today each
        # one also takes its unit off the market's total borrows.
        state = listed_state()
        apply_event(state, make_event(20, 0, 0, "Borrow", "ETH",
                                      account=ACCT_A, amount_underlying=Dec.from_mantissa(2)))
        for tx in (0, 1):
            warnings = apply_event(state, make_event(21, tx, 0, "RepayBorrow", "ETH",
                                                     account=ACCT_B, payer=ACCT_B,
                                                     amount_underlying=Dec.from_mantissa(1)))
            assert warnings == []
        assert validate_state(state) == []

    def test_liquidation_is_a_collateral_transfer(self):
        state = GlobalState.fresh()
        replay(state, hand_fixture()[:17])  # through block 11
        supply_before = state.markets["ETH"].total_ctoken_supply
        apply_event(state, hand_fixture()[17])
        assert state.markets["ETH"].total_ctoken_supply == supply_before
        assert state.position(ACCT_B, "ETH").ctoken_balance == HAND_FINAL["b_ceth"]

    def test_overseizure_rejected_before_any_mutation(self):
        state = GlobalState.fresh()
        replay(state, hand_fixture()[:17])
        before = state_digest(state)
        with pytest.raises(TransitionError, match="exceeds borrower collateral"):
            apply_event(state, make_event(12, 0, 0, "LiquidateBorrow", "DAI",
                                          borrower=ACCT_A, liquidator=ACCT_B,
                                          repay_amount_underlying=Dec(100),
                                          collateral_market="ETH",
                                          seized_ctokens=Dec(101)))
        # The debt side must not have been touched either.
        assert state_digest(state) == before

    def test_accrue_non_monotone_index_warns_but_applies(self):
        state = GlobalState.fresh()
        replay(state, hand_fixture()[:10])
        warnings = apply_event(state, make_event(20, 0, 0, "AccrueInterest", "DAI",
                                                 new_borrow_index=Dec("1.05"),
                                                 new_exchange_rate=Dec("0.01"),
                                                 interest_accumulated_underlying=ZERO))
        assert len(warnings) == 2  # index and rate both decreased
        assert state.markets["DAI"].borrow_index == Dec("1.05")
        assert state.markets["DAI"].exchange_rate == Dec("0.01")

    def test_new_model_resets_params(self):
        state = replayed()
        apply_event(state, make_event(20, 0, 0, "NewInterestRateModel", "DAI",
                                      model_id="linear-v1"))
        assert state.markets["DAI"].interest_model.model_id == "linear-v1"
        assert state.markets["DAI"].interest_model.params == {}

    def test_collateral_factor_update(self):
        state = replayed()
        apply_event(state, make_event(20, 0, 0, "NewCollateralFactor", "DAI",
                                      new_factor=Dec("0.8")))
        assert state.markets["DAI"].collateral_factor == Dec("0.8")

    def test_price_before_listing_allowed(self):
        state = GlobalState.fresh()
        apply_event(state, make_event(1, 0, 0, "PriceUpdate", "NEW", price_usd=Dec(7)))
        assert state.price_table.get("NEW") == Dec(7)

    def test_sum_beyond_carrier_names_the_event_without_mutation(self):
        state = listed_state()
        for block in range(20, 25):
            apply_event(state, make_event(block, 0, 0, "Mint", "DAI", account=ACCT_A,
                                          amount_underlying=HUGE, amount_ctokens=HUGE))
        before = state_digest(state)
        sixth = make_event(25, 0, 0, "Mint", "DAI", account=ACCT_A,
                           amount_underlying=HUGE, amount_ctokens=HUGE)
        with pytest.raises(TransitionError) as excinfo:
            apply_event(state, sixth)
        assert str(excinfo.value) == "event 25:0:0: mantissa exceeds the signed 256-bit carrier"
        assert excinfo.value.key == sixth.key
        assert state_digest(state) == before

    @pytest.mark.parametrize("setup,failing,message", [
        # The index moved but the total did not, so repaying the accrued
        # 110 against a total of 100 is beyond slack; the position must not
        # be zeroed on the way to that check.
        ([make_event(20, 0, 0, "Borrow", "DAI", account=ACCT_A, amount_underlying=Dec(100)),
          make_event(21, 0, 0, "AccrueInterest", "DAI", new_borrow_index=Dec("1.1"),
                     new_exchange_rate=Dec("0.02"), interest_accumulated_underlying=ZERO)],
         make_event(22, 0, 0, "RepayBorrow", "DAI", account=ACCT_A, payer=ACCT_A,
                    amount_underlying=Dec(110)),
         "negative beyond"),
        # The supply overflows after B's new position would hold the cTokens.
        ([make_event(block, 0, 0, "Mint", "DAI", account=ACCT_A,
                     amount_underlying=HUGE, amount_ctokens=HUGE) for block in range(20, 25)],
         make_event(25, 0, 0, "Mint", "DAI", account=ACCT_B,
                    amount_underlying=HUGE, amount_ctokens=HUGE),
         "carrier"),
        # Total borrows overflow after the index and rate would have moved.
        ([make_event(block, 0, 0, "AccrueInterest", "DAI", new_borrow_index=ONE,
                     new_exchange_rate=Dec("0.02"), interest_accumulated_underlying=HUGE)
          for block in range(20, 25)],
         make_event(25, 0, 0, "AccrueInterest", "DAI", new_borrow_index=Dec(2),
                    new_exchange_rate=Dec("0.03"), interest_accumulated_underlying=HUGE),
         "carrier"),
    ], ids=["repay-after-accrual", "mint-overflow-new-account", "accrual-overflow"])
    def test_failed_transition_leaves_state_untouched(self, setup, failing, message):
        state = listed_state()
        replay(state, setup)
        before, cursor = state_digest(state), state.cursor
        with pytest.raises(TransitionError, match=message):
            apply_event(state, failing)
        assert state_digest(state) == before
        assert state.cursor == cursor

    @pytest.mark.parametrize("liquidator,collateral", [
        (ACCT_A, "ETH"), (ACCT_B, "DAI"), (ACCT_A, "DAI"),
    ], ids=["self", "same-market", "self-same-market"])
    def test_liquidation_with_shared_positions(self, liquidator, collateral):
        # At block 11, A owes 200 DAI at snapshot 1.1 and holds 500 cDAI
        # and 100 cETH; B holds 900 cETH and no cDAI.
        state = GlobalState.fresh()
        replay(state, hand_fixture()[:17])
        held = {account: state.position(account, collateral) for account in (ACCT_A, ACCT_B)}
        held = {account: p.ctoken_balance if p else ZERO for account, p in held.items()}
        supply = state.markets[collateral].total_ctoken_supply
        apply_event(state, make_event(12, 0, 0, "LiquidateBorrow", "DAI",
                                      borrower=ACCT_A, liquidator=liquidator,
                                      repay_amount_underlying=Dec(100),
                                      collateral_market=collateral, seized_ctokens=Dec(30)))
        seized_from_a = ZERO if liquidator == ACCT_A else Dec(30)
        assert state.position(ACCT_A, collateral).ctoken_balance == held[ACCT_A] - seized_from_a
        assert state.position(liquidator, collateral).ctoken_balance == held[liquidator] + seized_from_a
        assert state.position(ACCT_A, "DAI").borrow_principal == Dec(100)
        assert state.markets[collateral].total_ctoken_supply == supply
        assert validate_state(state) == []

    @pytest.mark.parametrize("overshoot,applies", [(1, True), (2, False)])
    def test_repay_slack_counts_borrowers_after_the_repay(self, overshoot, applies):
        # A and B each owe 100 DAI. A repays 200 plus a few mantissa units:
        # the total would end that many units below zero, and the slack is
        # one unit per borrower left once A's debt is cleared, so one.
        state = listed_state()
        for tx, account in enumerate((ACCT_A, ACCT_B)):
            apply_event(state, make_event(20, tx, 0, "Borrow", "DAI",
                                          account=account, amount_underlying=Dec(100)))
        repay = make_event(21, 0, 0, "RepayBorrow", "DAI", account=ACCT_A, payer=ACCT_A,
                           amount_underlying=Dec(200) + Dec.from_mantissa(overshoot))
        if applies:
            warnings = apply_event(state, repay)
            assert len(warnings) == 1 and "clamped to zero" in warnings[0]
            assert state.markets["DAI"].total_borrows == ZERO
            assert state.position(ACCT_A, "DAI").borrow_principal == ZERO
        else:
            with pytest.raises(TransitionError, match="negative beyond"):
                apply_event(state, repay)

    def test_liquidation_creates_debt_position_before_collateral_position(self):
        # Holdings order is the order of the valuation sums, so the order
        # in which positions are created is part of the state.
        state = listed_state()
        borrower, liquidator, both = ("0x" + digits * 20 for digits in ("71", "72", "73"))
        zero_liquidation = dict(repay_amount_underlying=ZERO, collateral_market="ETH",
                                seized_ctokens=ZERO)
        apply_event(state, make_event(20, 0, 0, "LiquidateBorrow", "DAI", borrower=borrower,
                                      liquidator=liquidator, **zero_liquidation))
        apply_event(state, make_event(21, 0, 0, "LiquidateBorrow", "DAI", borrower=both,
                                      liquidator=both, **zero_liquidation))
        assert list(state.participants)[-3:] == [borrower, liquidator, both]
        assert list(state.participants[borrower]) == ["DAI"]
        assert list(state.participants[both]) == ["DAI", "ETH"]
        assert validate_state(state) == []


class TestReplay:
    def test_error_carries_partial_report(self):
        events = hand_fixture()
        events.insert(10, make_event(4, 0, 1, "Borrow", "XYZ",
                                     account=ACCT_A, amount_underlying=ONE))
        state = GlobalState.fresh()
        with pytest.raises(ReplayError) as excinfo:
            replay(state, events)
        report = excinfo.value.report
        assert report.events_applied == 10
        assert state.cursor == OrderingKey(4, 0, 0)
        assert report.digest == state_digest(state)
        assert isinstance(excinfo.value.cause, TransitionError)

    def test_prefix_stops_at_block(self):
        prefix = [e for e in hand_fixture() if e.key.block <= 4]
        state, report = replay(GlobalState.fresh(), prefix)
        assert report.events_applied == 10
        assert state.cursor == OrderingKey(4, 0, 0)
        assert state.markets["DAI"].total_borrows == Dec("115.5")

    def test_prefix_beyond_stream_is_full_replay(self):
        full_digest = replay(GlobalState.fresh(), hand_fixture())[1].digest
        prefix = [e for e in hand_fixture() if e.key.block <= 10 ** 9]
        prefix_digest = replay(GlobalState.fresh(), prefix)[1].digest
        assert prefix_digest == full_digest

    def test_split_replay_matches_one_shot(self):
        events = hand_fixture()
        one_shot = replay(GlobalState.fresh(), events)[1].digest
        state = GlobalState.fresh()
        replay(state, events[:9])
        _, report = replay(state, events[9:])
        assert report.digest == one_shot


class TestDigest:
    def test_stable_across_copies(self):
        state = replayed()
        assert state_digest(state.copy()) == state_digest(state)

    def test_sensitive_to_one_mantissa_unit(self):
        state = replayed()
        before = state_digest(state)
        state.position(ACCT_A, "DAI").ctoken_balance += Dec.from_mantissa(1)
        assert state_digest(state) != before

    def test_deterministic_across_replays(self):
        assert (replay(GlobalState.fresh(), hand_fixture())[1].digest
                == replay(GlobalState.fresh(), hand_fixture())[1].digest)


def test_no_assert_in_package_source():
    """Asserts vanish under -O, so none may carry control flow."""
    for path in sorted(Path(plfkit.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"


def test_one_json_reader_in_package_source():
    """events._parse_json is the only JSON text reader, so every document
    format fails through its one error path."""
    uses = []
    for path in sorted(Path(plfkit.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "json" and node.attr in ("load", "loads")) or (
                        isinstance(node, ast.ImportFrom) and node.module == "json"
                        and {alias.name for alias in node.names} & {"load", "loads"}):
                    uses.append((path.stem, getattr(top, "name", None), node.lineno))
    assert [use[:2] for use in uses] == [("events", "_parse_json")], uses


def test_one_canonical_json_writer_in_package_source():
    """events._encode_canonical writes every digested or stored document;
    the only other JSON writer is cli._write_rows's indented table."""
    uses = []
    for path in sorted(Path(plfkit.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "json" and node.attr in ("dump", "dumps")) or (
                        isinstance(node, ast.ImportFrom) and node.module == "json"
                        and {alias.name for alias in node.names} & {"dump", "dumps"}):
                    uses.append((path.stem, getattr(top, "name", None), node.lineno))
    assert [use[:2] for use in uses] == [("cli", "_write_rows"), ("events", "_encode_canonical")], uses


def test_importing_a_module_loads_only_its_dependencies():
    """The package re-exports nothing, so importing one module does not
    load the generator, the oracle or the analytics, and a snapshot read
    needs no engine. The CLI loads at start
    only the modules whose errors main() catches; each command imports
    the rest of what it runs."""
    code = (
        "import sys\n"
        "sys.path[:0] = [sys.argv[1]]\n"
        "def loaded(name):\n"
        "    __import__('plfkit.' + name)\n"
        "    print(' '.join(sorted(m for m in sys.modules if m.startswith('plfkit.'))))\n"
        "loaded('fixedpoint')\n"
        "loaded('snapshots')\n"
        "loaded('engine')\n"
        "loaded('cli')\n"
    )
    src = os.path.dirname(os.path.dirname(plfkit.__file__))
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "plfkit.fixedpoint",
        "plfkit.events plfkit.fixedpoint plfkit.model plfkit.snapshots",
        "plfkit.engine plfkit.events plfkit.fixedpoint plfkit.model plfkit.snapshots",
        "plfkit.cli plfkit.engine plfkit.events plfkit.fixedpoint plfkit.model plfkit.snapshots",
    ]


def test_only_the_generator_imports_dataclasses():
    """No command but gen-scenario pays at start-up for dataclasses, or for
    inspect, which it imports: the records outside the generator are named
    tuples and slotted classes."""
    code = (
        "import sys\n"
        "sys.path[:0] = [sys.argv[1]]\n"
        "import plfkit.cli, plfkit.engine, plfkit.snapshots, plfkit.risk, plfkit.analytics, plfkit.leverage\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
        "import plfkit.scenarios\n"
        "print('dataclasses' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(plfkit.__file__))
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == ["[]", "True"]


def test_one_event_fold_in_package_source():
    """engine._fold is the only loop that applies events: _apply is called
    only there and in apply_event, and no package code calls apply_event."""
    callers = {"_apply": set(), "apply_event": set()}
    for path in sorted(Path(plfkit.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in callers:
                        callers[name].add((path.stem, getattr(top, "name", None)))
    assert callers == {"_apply": {("engine", "apply_event"), ("engine", "_fold")}, "apply_event": set()}


# Public top-level names that nothing outside their own definition names,
# each with the reason it stays.
_UNREACHED_PUBLIC_NAMES = {
    "engine.apply_event": "the documented single-event API that the unit tests drive; "
                          "test_one_event_fold_in_package_source pins that no package code calls it",
    "model.validate_state": "ROADMAP items 4 and 9 will run it on load; the unit tests check states with it now",
}


def test_every_public_name_is_reached_in_package_source():
    """Every public top-level def or class in plfkit is named in code (not a
    docstring or string) outside its own definition: in another package
    module, elsewhere in its own module, or in tests/test_acceptance.py.
    The allowlist can only shrink: an entry that becomes reached or no
    longer exists fails too."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(plfkit.__file__).parent.glob("*.py"))}
    public = {
        node: f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    named = set()
    for top in [node for tree in trees.values() for node in tree.body] + acceptance.body:
        own = top.name if top in public else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                continue
            named.update(name for name in names if name != own)
    unreached = {qualified for node, qualified in public.items() if node.name not in named}
    allowed = set(_UNREACHED_PUBLIC_NAMES)
    assert unreached == allowed, (
        f"unreached, not allowlisted: {sorted(unreached - allowed)}; "
        f"allowlisted, but reached or gone: {sorted(allowed - unreached)}"
    )


def test_analytics_folds_take_no_digest(monkeypatch):
    def refuse(state):
        raise AssertionError("state_digest called")

    monkeypatch.setattr(plfkit.engine, "state_digest", refuse)
    assert len(track_efficiency(GlobalState.fresh(), hand_fixture()).liquidations) == 1
    rows, warnings = funds_time_series(GlobalState.fresh(), hand_fixture())
    assert (len(rows), warnings) == (13, [])


@pytest.mark.parametrize("argv", [
    ["liquidable"],
    ["sensitivity", "--asset", "ETH", "--shocks", "0,0.5"],
    ["concentration", "--side", "borrow"],
    ["efficiency"],
    ["timeseries"],
], ids=lambda argv: argv[0])
def test_stream_commands_take_no_digest(monkeypatch, tmp_path, argv):
    """Only replay reports a digest: the other commands that fold
    --events never compute one."""
    def refuse(state):
        raise AssertionError("state_digest called")

    stream = tmp_path / "hand.jsonl"
    write_events(str(stream), hand_fixture())
    # The engine's binding and the CLI's, which cmd_replay calls.
    for module in (plfkit.engine, plfkit.cli):
        monkeypatch.setattr(module, "state_digest", refuse)
    assert main(argv + ["--events", str(stream)]) == 0


# -- Random streams with injected bad events ------------------------------------

MARKETS = ("DAI", "ETH", "WBTC")
ACCOUNTS = (ACCT_A, ACCT_B, ACCT_C, "0x" + "dd" * 20)
UNIT = 10 ** 18
MAX_DEC = Dec.from_mantissa(MANTISSA_BOUND - 1)
BAD_EVENTS = ("overdraw", "over-seizure", "unknown-market", "overflow", "beyond-slack")


def opening(market_count: int) -> list[EventRecord]:
    events = []
    for tx, symbol in enumerate(MARKETS[:market_count]):
        events += [
            make_event(1, tx, 0, "MarketListed", symbol, initial_exchange_rate=Dec("0.02"),
                       initial_collateral_factor=Dec("0.75")),
            make_event(1, tx, 1, "PriceUpdate", symbol, price_usd=Dec(tx + 1)),
        ]
    return events


def upto(data, mantissa: int) -> Dec:
    return Dec.from_mantissa(data.draw(st.integers(0, mantissa)))


def good_event(data, state: GlobalState, block: int) -> EventRecord:
    """An event drawn against ``state``'s balances, which applies."""
    kind = data.draw(st.sampled_from((
        "Mint", "Redeem", "Borrow", "RepayBorrow", "LiquidateBorrow",
        "AccrueInterest", "NewCollateralFactor", "PriceUpdate",
    )))
    symbol = data.draw(st.sampled_from(sorted(state.markets)))
    account = data.draw(st.sampled_from(ACCOUNTS))
    market = state.markets[symbol]
    position = state.position(account, symbol) or Position()
    accrued = position.accrued_borrow(market.borrow_index)
    if kind in ("Mint", "Redeem"):
        ctokens = upto(data, 1000 * UNIT if kind == "Mint" else position.ctoken_balance.mantissa)
        payload = dict(account=account, amount_underlying=ctokens * market.exchange_rate,
                       amount_ctokens=ctokens)
    elif kind == "Borrow":
        payload = dict(account=account, amount_underlying=upto(data, 100 * UNIT))
    elif kind == "RepayBorrow":
        payload = dict(account=account, payer=account,
                       amount_underlying=upto(data, accrued.mantissa))
    elif kind == "LiquidateBorrow":
        collateral = data.draw(st.sampled_from(sorted(state.markets)))
        held = (state.position(account, collateral) or Position()).ctoken_balance
        payload = dict(borrower=account, liquidator=data.draw(st.sampled_from(ACCOUNTS)),
                       repay_amount_underlying=upto(data, accrued.mantissa),
                       collateral_market=collateral, seized_ctokens=upto(data, held.mantissa))
    elif kind == "AccrueInterest":
        new_index = market.borrow_index * (ONE + upto(data, UNIT // 20))
        interest = ZERO
        for holdings in state.participants.values():
            if (held := holdings.get(symbol)) is not None:
                interest = interest + held.accrued_borrow(new_index) - held.accrued_borrow(market.borrow_index)
        payload = dict(new_borrow_index=new_index,
                       new_exchange_rate=market.exchange_rate * (ONE + upto(data, UNIT // 100)),
                       interest_accumulated_underlying=interest)
    elif kind == "NewCollateralFactor":
        payload = dict(new_factor=upto(data, UNIT))
    else:
        payload = dict(price_usd=Dec.from_mantissa(data.draw(st.integers(UNIT // 2, 2 * UNIT))))
    return make_event(block, 0, 0, kind, symbol, **payload)


def bad_event(data, state: GlobalState, block: int) -> EventRecord | None:
    """An event that must fail against ``state``, or None where the drawn
    failure cannot be reached from it (an overflow of an empty market)."""
    what = data.draw(st.sampled_from(BAD_EVENTS))
    symbol = data.draw(st.sampled_from(sorted(state.markets)))
    account = data.draw(st.sampled_from(ACCOUNTS))
    market = state.markets[symbol]
    position = state.position(account, symbol) or Position()
    beyond = Dec.from_mantissa(data.draw(st.integers(1, UNIT)))
    if what == "overdraw":
        ctokens = position.ctoken_balance + beyond
        return make_event(block, 0, 0, "Redeem", symbol, account=account,
                          amount_underlying=ctokens * market.exchange_rate, amount_ctokens=ctokens)
    if what == "over-seizure":
        collateral = data.draw(st.sampled_from(sorted(state.markets)))
        held = (state.position(account, collateral) or Position()).ctoken_balance
        return make_event(block, 0, 0, "LiquidateBorrow", symbol, borrower=account,
                          liquidator=data.draw(st.sampled_from(ACCOUNTS)),
                          repay_amount_underlying=upto(data, position.accrued_borrow(market.borrow_index).mantissa),
                          collateral_market=collateral, seized_ctokens=held + beyond)
    if what == "unknown-market":
        event = good_event(data, state, block)
        if event.kind == "LiquidateBorrow" and data.draw(st.booleans()):
            return make_event(block, 0, 0, event.kind, event.market,
                              **{**event.payload, "collateral_market": "ZZZ"})
        if event.kind == "PriceUpdate":  # a price may precede its listing
            return make_event(block, 0, 0, "NewCollateralFactor", "ZZZ", new_factor=ONE)
        return make_event(block, 0, 0, event.kind, "ZZZ", **event.payload)
    if what == "overflow":
        # The largest amount on a non-empty aggregate; the account may be
        # new, so the failure must not leave a fresh position behind.
        if not market.total_ctoken_supply.is_zero() and data.draw(st.booleans()):
            return make_event(block, 0, 0, "Mint", symbol, account=account,
                              amount_underlying=MAX_DEC * market.exchange_rate, amount_ctokens=MAX_DEC)
        if not market.total_borrows.is_zero():
            return make_event(block, 0, 0, "AccrueInterest", symbol,
                              new_borrow_index=market.borrow_index + ONE,
                              new_exchange_rate=market.exchange_rate + ONE,
                              interest_accumulated_underlying=MAX_DEC)
        return None
    # Beyond slack: the total would end one unit further below zero than
    # there are borrowers, whoever repays.
    borrowers = sum(
        1 for holdings in state.participants.values()
        if (held := holdings.get(symbol)) is not None and not held.borrow_principal.is_zero()
    )
    return make_event(block, 0, 0, "RepayBorrow", symbol, account=account, payer=account,
                      amount_underlying=market.total_borrows + Dec.from_mantissa(borrowers + 1))


class TestFailedEventChangesNothing:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_random_streams_with_bad_events(self, market_count, data):
        state, _ = replay(GlobalState.fresh(), opening(market_count))
        for block in range(2, 2 + data.draw(st.integers(1, 40))):
            event = bad_event(data, state, block) if data.draw(st.integers(0, 3)) == 0 else None
            injected = event is not None
            if event is None:
                event = good_event(data, state, block)
            before, cursor = state_digest(state), state.cursor
            try:
                apply_event(state, event)
            except TransitionError:
                assert state_digest(state) == before
                assert state.cursor == cursor
            else:
                assert not injected, f"{event.kind} {event.payload} applied"
                assert validate_state(state) == []

    def test_redeem_below_zero_supply(self):
        # Only a state whose supply is below a holder's balance gets here:
        # a direct write, or a snapshot, since loads do not check totals.
        state, _ = replay(GlobalState.fresh(), [
            make_event(1, 0, 0, "MarketListed", "DAI", initial_exchange_rate=ONE, initial_collateral_factor=Dec("0.5")),
            make_event(2, 0, 0, "Mint", "DAI", account=ACCT_A, amount_underlying=Dec(10), amount_ctokens=Dec(10)),
        ])
        state.markets["DAI"].total_ctoken_supply = Dec(5)
        before, cursor = state_digest(state), state.cursor
        redeem = make_event(3, 0, 0, "Redeem", "DAI", account=ACCT_A, amount_underlying=Dec(8), amount_ctokens=Dec(8))
        with pytest.raises(TransitionError, match="^event 3:0:0: market 'DAI' ctoken supply would go negative$"):
            apply_event(state, redeem)
        assert state_digest(state) == before
        assert state.cursor == cursor
