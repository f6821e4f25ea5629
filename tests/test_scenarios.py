import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plfkit.scenarios

from plfkit.analytics import concentration, track_efficiency
from plfkit.engine import replay
from plfkit.events import read_events
from plfkit.fixedpoint import MANTISSA_BOUND, ONE, SCALE, ZERO, Dec, DecOverflowError, dec_muldiv
from plfkit.model import GlobalState, validate_state
from plfkit.risk import liquidable_accounts
from plfkit.scenarios import (
    ANNOTATION_FORMAT_VERSION,
    Checkpoint,
    ConcentrationPlan,
    EfficiencyCheck,
    GenerationError,
    GroundTruth,
    MarketCheck,
    MarketSpec,
    PlannedLiquidation,
    PricePath,
    ScenarioSpec,
    default_spec,
    generate,
    ground_truth,
    ground_truth_from_dict,
    ground_truth_to_dict,
    spec_from_dict,
    spec_to_dict,
    _MiniMarket,
    _MiniPos,
    _NaiveState,
)
from streams import ACCT_A, hand_fixture

PLANNED = "0x" + "ab" * 20


def gen(spec, tmp_path, stem="scn"):
    return generate(spec, str(tmp_path / f"{stem}.jsonl"), str(tmp_path / f"{stem}.json"))


def test_oracle_imports_no_engine_code():
    """The naive replayer checks the engine, so it may share only the Dec
    arithmetic, the event records and the canonical JSON encoding."""
    allowed = {"events": None, "fixedpoint": None}
    tree = ast.parse(Path(plfkit.scenarios.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "plfkit" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "plfkit":
                    continue
                module = module[len("plfkit."):]
            assert module in allowed, f"scenarios imports plfkit module {module or '(package)'}"
            names = {alias.name for alias in node.names}
            assert allowed[module] is None or names <= allowed[module], f"scenarios imports {names} from {module}"


def _spec_variant(plans=1, concentration=None, floor=None, cap=None):
    spec = default_spec(9, event_count=150)
    spec.planned_liquidations = [
        PlannedLiquidation("0x" + f"{i + 1:02x}" * 20, 40 + 10 * i, 42 + 10 * i) for i in range(plans)
    ]
    spec.planned_concentration = concentration
    spec.markets[1] = MarketSpec("ETH", Dec("0.05"), Dec("0.6"), PricePath(Dec(100), 25, floor, cap))
    return spec


class TestSpecSerialization:
    def test_round_trip(self):
        for spec in [
            _spec_variant(concentration=ConcentrationPlan("borrow", (Dec("0.3"), Dec("0.2")))),
            _spec_variant(plans=0),
            _spec_variant(plans=2, concentration=ConcentrationPlan("supply", (Dec("0.274"),))),
            _spec_variant(plans=3),
            _spec_variant(floor=Dec("90"), cap=Dec("110.5")),
            _spec_variant(floor=Dec("90")),
            _spec_variant(cap=Dec("110.5")),
        ]:
            rebuilt = spec_from_dict(spec_to_dict(spec))
            assert rebuilt == spec
            assert spec_to_dict(rebuilt) == spec_to_dict(spec)

    def test_field_names_and_encoding(self):
        spec = default_spec(7)
        assert spec_to_dict(spec) == {
            "seed": 7,
            "accounts": 8,
            "event_count": 400,
            "close_factor": "0.5",
            "liquidation_incentive": "0.1",
            "checkpoint_count": 5,
            "markets": [
                {
                    "symbol": "DAI",
                    "initial_exchange_rate": "0.02",
                    "collateral_factor": "0.75",
                    "price": {"initial": "1", "max_step_bps": 5, "floor": None, "cap": None},
                },
                {
                    "symbol": "ETH",
                    "initial_exchange_rate": "0.05",
                    "collateral_factor": "0.6",
                    "price": {"initial": "100", "max_step_bps": 25, "floor": None, "cap": None},
                },
            ],
            "planned_liquidations": [
                {"account": PLANNED, "liquidable_block": 40, "liquidation_block": 42},
            ],
            "planned_concentration": None,
        }
        spec.planned_concentration = ConcentrationPlan("borrow", (Dec("0.3"), Dec("0.25")))
        spec.markets[0] = MarketSpec("DAI", Dec("0.02"), Dec("0.75"),
                                     PricePath(Dec(1), 5, floor=Dec("0.9"), cap=Dec("1.1")))
        data = spec_to_dict(spec)
        assert data["planned_concentration"] == {"side": "borrow", "shares": ["0.3", "0.25"]}
        assert data["markets"][0]["price"] == {
            "initial": "1", "max_step_bps": 5, "floor": "0.9", "cap": "1.1",
        }

    def test_defaults_fill_in(self):
        """An absent optional key decodes to its declared default; keys the
        spec does not declare are ignored at every level."""
        optional = ("close_factor", "liquidation_incentive", "checkpoint_count", "planned_liquidations",
                    "planned_concentration", "max_step_bps", "floor", "cap")
        for absent in [(key,) for key in optional] + [optional]:
            for extra in ({}, {"note": "ignored", "version": 2}):
                data = spec_to_dict(_spec_variant(
                    plans=2, concentration=ConcentrationPlan("borrow", (Dec("0.3"),)), floor=Dec(90), cap=Dec(110)))
                data.update(close_factor="0.4", liquidation_incentive="0.05", checkpoint_count=7)
                prices = [market["price"] for market in data["markets"]]
                for key in absent:
                    for holder in [data] + prices:
                        holder.pop(key, None)
                for holder in ([data, data.get("planned_concentration") or {}] + data["markets"] + prices
                               + data.get("planned_liquidations", [])):
                    holder.update(extra)
                spec = spec_from_dict(data)
                assert spec.close_factor == Dec("0.5" if "close_factor" in absent else "0.4")
                assert spec.liquidation_incentive == Dec("0.1" if "liquidation_incentive" in absent else "0.05")
                assert spec.checkpoint_count == (5 if "checkpoint_count" in absent else 7)
                assert len(spec.planned_liquidations) == (0 if "planned_liquidations" in absent else 2)
                assert (spec.planned_concentration is None) == ("planned_concentration" in absent)
                for market, step in zip(spec.markets, (5, 25)):
                    assert market.price.max_step_bps == (20 if "max_step_bps" in absent else step)
                eth = spec.markets[1].price
                assert eth.floor == (None if "floor" in absent else Dec(90))
                assert eth.cap == (None if "cap" in absent else Dec(110))
                assert spec.markets[0].price.floor is None and spec.markets[0].price.cap is None


class TestSpecValidation:
    def base(self, **overrides):
        spec = default_spec(1, event_count=100)
        for name, value in overrides.items():
            setattr(spec, name, value)
        return spec

    @pytest.mark.parametrize("overrides,message", [
        ({"seed": -1}, "64-bit"),
        ({"seed": 2 ** 64}, "64-bit"),
        ({"accounts": 0}, "account"),
        ({"event_count": 19}, "at least 20"),
        ({"markets": []}, "market"),
        ({"checkpoint_count": 0}, "checkpoint_count"),
        ({"checkpoint_count": 51}, "checkpoint_count"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"event_count": "100"}, "event_count must be an integer"),
        ({"checkpoint_count": "5"}, "checkpoint_count must be an integer"),
        ({"accounts": 1.5}, "accounts must be an integer"),
        ({"markets": [MarketSpec(5, Dec("0.02"), Dec("0.75"), PricePath(Dec(1)))]}, "symbol"),
        ({"markets": [MarketSpec("", Dec("0.02"), Dec("0.75"), PricePath(Dec(1)))]}, "symbol"),
        ({"markets": [MarketSpec("DAI", Dec("0.02"), Dec("0.75"), PricePath(Dec(1), max_step_bps="5"))]},
         "max_step_bps must be an integer"),
        ({"planned_liquidations": [PlannedLiquidation(PLANNED, "40", 42)]},
         "liquidable_block must be an integer"),
        ({"planned_liquidations": [PlannedLiquidation(PLANNED, 40, 42.0)]},
         "liquidation_block must be an integer"),
        ({"planned_concentration": ConcentrationPlan("sideways", (Dec("0.3"),))}, "side"),
        ({"markets": [MarketSpec("DAI", Dec(0), Dec("0.75"), PricePath(Dec(1)))]},
         r"market DAI initial_exchange_rate 0: value must be positive"),
        ({"markets": [MarketSpec("DAI", Dec(-1), Dec("0.75"), PricePath(Dec(1)))]},
         r"market DAI initial_exchange_rate -1: value must be positive"),
        ({"markets": [MarketSpec("DAI", Dec("0.02"), Dec("1.5"), PricePath(Dec(1)))]},
         r"market DAI collateral_factor 1.5: factor must lie in \[0, 1\]"),
        ({"close_factor": Dec(2)}, r"close_factor 2: factor must lie in \[0, 1\]"),
        ({"close_factor": Dec("-0.5")}, r"close_factor -0.5: factor must lie in \[0, 1\]"),
        ({"liquidation_incentive": Dec(-2)}, "liquidation_incentive -2: amount must be non-negative"),
    ])
    def test_scalar_bounds(self, tmp_path, overrides, message):
        with pytest.raises(GenerationError, match=message):
            gen(self.base(**overrides), tmp_path)

    def test_reserved_symbols_rejected(self, tmp_path):
        spec = self.base()
        spec.markets = spec.markets + [
            MarketSpec("PLD", Dec("0.02"), Dec("0.5"), PricePath(Dec(1))),
        ]
        with pytest.raises(GenerationError, match="reserved"):
            gen(spec, tmp_path)

    def test_duplicate_symbols_rejected(self, tmp_path):
        spec = self.base()
        spec.markets = spec.markets + [spec.markets[0]]
        with pytest.raises(GenerationError, match="unique"):
            gen(spec, tmp_path)

    def test_bad_price_bounds_rejected(self, tmp_path):
        spec = self.base()
        spec.markets = [
            MarketSpec("DAI", Dec("0.02"), Dec("0.75"),
                       PricePath(Dec(1), floor=Dec(2))),
        ]
        with pytest.raises(GenerationError, match="floor"):
            gen(spec, tmp_path)

    def test_plan_account_must_be_address(self, tmp_path):
        spec = self.base(planned_liquidations=[PlannedLiquidation("0xnope", 10, 12)])
        with pytest.raises(GenerationError, match="address"):
            gen(spec, tmp_path)

    def test_duplicate_plan_accounts_rejected(self, tmp_path):
        plan = PlannedLiquidation(PLANNED, 10, 12)
        spec = self.base(planned_liquidations=[plan, PlannedLiquidation(PLANNED, 20, 22)])
        with pytest.raises(GenerationError, match="more than one plan"):
            gen(spec, tmp_path)

    def test_liquidation_cannot_precede_liquidable(self, tmp_path):
        spec = self.base(planned_liquidations=[PlannedLiquidation(PLANNED, 12, 10)])
        with pytest.raises(GenerationError, match="precede"):
            gen(spec, tmp_path)

    @pytest.mark.parametrize("shares", [(), ("1",), ("0",), ("0.2", "0.3"), ("0.6", "0.5")])
    def test_bad_share_vectors_rejected(self, tmp_path, shares):
        spec = self.base(planned_concentration=ConcentrationPlan(
            "supply", tuple(Dec(s) for s in shares)))
        with pytest.raises(GenerationError):
            gen(spec, tmp_path)


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        spec = default_spec(5, event_count=120)
        one = gen(spec, tmp_path, "one")
        two = gen(spec, tmp_path, "two")
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        assert one.final_block == two.final_block

    def test_different_seeds_diverge(self, tmp_path):
        gen(default_spec(5, event_count=120), tmp_path, "one")
        gen(default_spec(6, event_count=120), tmp_path, "other")
        assert (tmp_path / "one.jsonl").read_bytes() != (tmp_path / "other.jsonl").read_bytes()


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scenario")
    spec = default_spec(1, event_count=150)
    result = gen(spec, tmp)
    events = read_events(result.events_path)
    with open(result.annotations_path, "r", encoding="ascii") as handle:
        annotation = json.load(handle)
    return result, events, annotation


class TestGeneratedStream:
    def test_stream_shape(self, scenario):
        result, events, annotation = scenario
        assert result.event_count == 150 == len(events)
        assert annotation["format_version"] == ANNOTATION_FORMAT_VERSION
        assert annotation["seed"] == 1
        assert annotation["event_count"] == 150
        assert annotation["final_block"] == result.final_block
        assert events[-1].key.block == result.final_block

    def test_replays_cleanly(self, scenario):
        _, events, _ = scenario
        state, report = replay(GlobalState.fresh(), events)
        assert report.warnings == []
        assert validate_state(state) == []

    def test_checkpoints_match_engine(self, scenario):
        _, events, annotation = scenario
        truth = ground_truth_from_dict(annotation)
        state = GlobalState.fresh()
        position = 0
        for checkpoint in truth.checkpoints:
            while position < len(events) and events[position].key.block <= checkpoint.block:
                replay(state, [events[position]])
                position += 1
            assert tuple(sorted(liquidable_accounts(state))) == checkpoint.liquidable
            for symbol, check in checkpoint.markets.items():
                market = state.markets[symbol]
                assert market.total_ctoken_supply == check.total_ctoken_supply
                assert market.total_borrows == check.total_borrows
                ctoken_sum = Dec(0)
                accrued_sum = Dec(0)
                for holdings in state.participants.values():
                    pos = holdings.get(symbol)
                    if pos is None:
                        continue
                    ctoken_sum += pos.ctoken_balance
                    accrued_sum += pos.accrued_borrow(market.borrow_index)
                assert ctoken_sum == check.participant_ctoken_sum
                assert accrued_sum == check.participant_accrued_sum

    def test_efficiency_records_match_tracker(self, scenario):
        _, events, annotation = scenario
        truth = ground_truth_from_dict(annotation)
        timeline = track_efficiency(GlobalState.fresh(), events)
        assert len(timeline.liquidations) == len(truth.efficiency)
        for record, check in zip(timeline.liquidations, truth.efficiency):
            assert record.account == check.account
            assert record.key.block == check.liquidation_block
            assert record.blocks_elapsed == check.blocks_elapsed
            assert record.seized_value_usd == check.seized_value_usd
            assert (record.warning is not None) == check.warned

    def test_planned_liquidation_lands_on_schedule(self, scenario):
        _, _, annotation = scenario
        assert annotation["planned_liquidations"] == [
            {"account": PLANNED, "liquidable_block": 40, "liquidation_block": 42},
        ]
        records = annotation["efficiency_records"]
        planned = [r for r in records if r["account"] == PLANNED]
        assert len(planned) == 1
        assert planned[0]["start_block"] == 40
        assert planned[0]["liquidation_block"] == 42
        assert planned[0]["blocks_elapsed"] == 2
        assert not planned[0]["warned"]


class TestConcentrationPlanting:
    def test_supply_share_recovered(self, tmp_path):
        spec = default_spec(7, event_count=200)
        spec.planned_concentration = ConcentrationPlan("supply", (Dec("0.274"),))
        result = gen(spec, tmp_path)
        state, _ = replay(GlobalState.fresh(), read_events(result.events_path))
        report = concentration(state, "supply", top_n=1)
        tolerance = Dec("0.000000000001")
        assert -tolerance <= report.top1_share - Dec("0.274") <= tolerance

    def test_borrow_share_recovered(self, tmp_path):
        spec = default_spec(7, event_count=200)
        spec.planned_concentration = ConcentrationPlan("borrow", (Dec("0.371"),))
        result = gen(spec, tmp_path)
        state, _ = replay(GlobalState.fresh(), read_events(result.events_path))
        report = concentration(state, "borrow", top_n=1)
        tolerance = Dec("0.000000000001")
        assert -tolerance <= report.top1_share - Dec("0.371") <= tolerance

    def test_two_whale_ladder(self, tmp_path):
        spec = default_spec(3, event_count=200)
        spec.planned_concentration = ConcentrationPlan("supply", (Dec("0.4"), Dec("0.25")))
        result = gen(spec, tmp_path)
        state, _ = replay(GlobalState.fresh(), read_events(result.events_path))
        report = concentration(state, "supply", top_n=2)
        tolerance = Dec("0.000000000001")
        assert -tolerance <= report.rows[0].share - Dec("0.4") <= tolerance
        assert -tolerance <= report.rows[1].share - Dec("0.25") <= tolerance


class TestGroundTruthOracle:
    """The naive bookkeeping must agree with the hand-computed fixture."""

    def test_hand_fixture_checkpoints(self):
        truth = ground_truth(hand_fixture(), [4, 10, 13])
        by_block = {cp.block: cp for cp in truth.checkpoints}
        assert set(by_block) == {4, 10, 13}

        at4 = by_block[4]
        assert at4.liquidable == ()
        assert at4.markets["DAI"].total_borrows == Dec("115.5")
        assert at4.markets["DAI"].participant_accrued_sum == Dec("115.5")
        assert at4.markets["DAI"].total_ctoken_supply == Dec(500)

        at10 = by_block[10]
        assert at10.liquidable == (ACCT_A,)

        at13 = by_block[13]
        assert at13.liquidable == ()
        assert at13.markets["DAI"].total_borrows == Dec(210)
        assert at13.markets["DAI"].participant_accrued_sum == Dec(210)
        assert at13.markets["ETH"].total_ctoken_supply == Dec(1000)
        assert at13.markets["ETH"].participant_ctoken_sum == Dec(1000)

    def test_hand_fixture_efficiency(self):
        truth = ground_truth(hand_fixture(), [13])
        assert len(truth.efficiency) == 1
        record = truth.efficiency[0]
        assert record.account == ACCT_A
        assert record.start_block == 10
        assert record.liquidation_block == 12
        assert record.blocks_elapsed == 2
        assert record.seized_value_usd == Dec("109.99999999999999998")
        assert not record.warned

    def test_checkpoint_beyond_stream_sees_final_state(self):
        truth = ground_truth(hand_fixture(), [999])
        assert truth.checkpoints[0].block == 999
        assert truth.checkpoints[0].markets["DAI"].total_borrows == Dec(210)

    def test_dict_field_names_and_encoding(self):
        check = MarketCheck(Dec(500), Dec(500), Dec("115.5"), Dec("115.5"))
        truth = GroundTruth(
            checkpoints=[
                Checkpoint(block=4, liquidable=(), markets={"DAI": check}),
                Checkpoint(block=10, liquidable=(ACCT_A,), markets={}),
            ],
            efficiency=[
                EfficiencyCheck(ACCT_A, 10, 12, 2, Dec("109.99999999999999998")),
                EfficiencyCheck(PLANNED, 12, 12, 0, ZERO, warned=True),
            ],
        )
        assert ground_truth_to_dict(truth) == {
            "checkpoints": [
                {
                    "block": 4,
                    "liquidable": [],
                    "markets": {
                        "DAI": {
                            "total_ctoken_supply": "500",
                            "participant_ctoken_sum": "500",
                            "total_borrows": "115.5",
                            "participant_accrued_sum": "115.5",
                        },
                    },
                },
                {"block": 10, "liquidable": [ACCT_A], "markets": {}},
            ],
            "efficiency_records": [
                {
                    "account": ACCT_A,
                    "start_block": 10,
                    "liquidation_block": 12,
                    "blocks_elapsed": 2,
                    "seized_value_usd": "109.99999999999999998",
                    "warned": False,
                },
                {
                    "account": PLANNED,
                    "start_block": 12,
                    "liquidation_block": 12,
                    "blocks_elapsed": 0,
                    "seized_value_usd": "0",
                    "warned": True,
                },
            ],
        }

    def test_dict_round_trip(self):
        truth = ground_truth(hand_fixture(), [4, 13])
        rebuilt = ground_truth_from_dict(ground_truth_to_dict(truth))
        assert rebuilt == truth


def reference_health(naive, account, price_override=None, index_override=None, factor_override=None):
    """The oracle's valuation on Dec objects, kept as a literal reference
    for ``_NaiveState._sums`` (``_accrued`` inlined)."""
    power = ZERO
    borrow_value = ZERO
    collateral_value = ZERO
    for symbol, pos in naive.positions.get(account, {}).items():
        if pos.ctokens.is_zero() and pos.principal.is_zero():
            continue
        market = naive.markets[symbol]
        price = naive.prices[symbol]
        if price_override and symbol in price_override:
            price = price_override[symbol]
        factor = market.factor
        if factor_override and symbol in factor_override:
            factor = factor_override[symbol]
        index = market.index
        if index_override and symbol in index_override:
            index = index_override[symbol]
        if not pos.ctokens.is_zero():
            base = pos.ctokens * market.rate
            collateral_value = collateral_value + base * price
            power = power + (base * factor) * price
        if not pos.principal.is_zero():
            borrow_value = borrow_value + dec_muldiv(pos.principal, index, pos.snapshot) * price
    return power, borrow_value, collateral_value


def outcome(valuation, *args, **kwargs):
    try:
        return valuation(*args, **kwargs)
    except DecOverflowError:
        return DecOverflowError


SYMBOLS = ("AAA", "BBB", "CCC")
ACCOUNTS = ("0x" + "01" * 20, "0x" + "02" * 20)


def decimals(max_whole):
    return st.builds(
        lambda whole, frac: Dec.from_mantissa(whole * SCALE + frac),
        st.integers(0, max_whole),
        st.integers(0, SCALE - 1),
    )



amounts = st.one_of(st.just(ZERO), decimals(10 ** 6))
# Some books also hold amounts near the top of the carrier, so that sums overflow.
amounts_near_carrier = st.one_of(
    amounts, st.integers(MANTISSA_BOUND >> 8, MANTISSA_BOUND - 1).map(Dec.from_mantissa)
)
positive = decimals(10 ** 4).filter(lambda d: not d.is_zero())
fractions = st.integers(0, 100).map(lambda percent: Dec(percent) / Dec(100))


@st.composite
def naive_books(draw):
    """A _NaiveState with random markets, prices and holdings, empty
    positions included, plus one of health()'s overrides."""
    naive = _NaiveState()
    symbols = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True))
    for symbol in symbols:
        naive.markets[symbol] = _MiniMarket(rate=draw(positive), index=draw(positive), factor=draw(fractions))
        naive.prices[symbol] = draw(positive)
    sizes = draw(st.sampled_from([amounts, amounts_near_carrier]))
    for account in ACCOUNTS:
        held = draw(st.lists(st.sampled_from(symbols), max_size=len(symbols), unique=True))
        for symbol in held:
            pos = _MiniPos(ctokens=draw(sizes), principal=draw(sizes), snapshot=draw(positive))
            naive.positions.setdefault(account, {})[symbol] = pos
            naive.members.setdefault(symbol, []).append(account)
    name = draw(st.sampled_from([None, "price_override", "index_override", "factor_override"]))
    override = {}
    if name is not None:
        values = fractions if name == "factor_override" else positive
        chosen = draw(st.lists(st.sampled_from(symbols), min_size=1, unique=True))
        override[name] = {symbol: draw(values) for symbol in chosen}
    return naive, override


class TestOracleValuationAgainstReference:
    """health() on int mantissas equals the Dec-object valuation, overflow
    for overflow, and is_liquidable / drift_safe read the same sums."""

    @settings(max_examples=300, deadline=None)
    @given(naive_books())
    def test_health_matches_dec_reference(self, book):
        naive, override = book
        for account in ACCOUNTS + ("0x" + "03" * 20,):  # the last holds nothing
            expected = outcome(reference_health, naive, account, **override)
            assert outcome(naive.health, account, **override) == expected
            if not override:
                liquidable = expected if expected is DecOverflowError else expected[0] < expected[1]
                assert outcome(naive.is_liquidable, account) == liquidable

    @settings(max_examples=200, deadline=None)
    @given(naive_books())
    def test_drift_safe_matches_dec_reference(self, book):
        naive, override = book
        for symbol in naive.markets:
            try:
                expected = True
                for account in naive.members.get(symbol, ()):
                    power, borrow_value, _ = reference_health(naive, account, **override)
                    if not borrow_value.is_zero() and power < borrow_value * Dec("1.02"):
                        expected = False
                        break
            except DecOverflowError:
                expected = DecOverflowError
            assert outcome(naive.drift_safe, symbol, **override) == expected

    @pytest.mark.parametrize("ctokens,safe,liquidable", [
        ("102", True, False),
        ("101.999999999999999999", False, False),
        ("100", False, False),
        ("99.999999999999999999", False, True),
    ])
    def test_margins_at_equality(self, ctokens, safe, liquidable):
        naive = _NaiveState()
        naive.markets["AAA"] = _MiniMarket(rate=ONE, index=ONE, factor=ONE)
        naive.prices["AAA"] = ONE
        naive.positions[ACCT_A] = {"AAA": _MiniPos(ctokens=Dec(ctokens), principal=Dec(100))}
        naive.members["AAA"] = [ACCT_A]
        assert naive.drift_safe("AAA") is safe  # power >= 1.02 * borrow value
        assert naive.is_liquidable(ACCT_A) is liquidable  # power < borrow value

    def test_collateral_value_alone_leaves_the_carrier(self):
        naive = _NaiveState()
        naive.markets["AAA"] = _MiniMarket(rate=Dec("0.02"), index=ONE, factor=Dec("0.5"))
        naive.prices["AAA"] = Dec(500)
        naive.positions[ACCT_A] = {"AAA": _MiniPos(ctokens=Dec("9" * 58))}
        naive.members["AAA"] = [ACCT_A]
        # Power, half the collateral value, fits; the collateral value does not.
        assert ((Dec("9" * 58) * Dec("0.02")) * Dec("0.5")) * Dec(500) > ZERO
        with pytest.raises(DecOverflowError):
            reference_health(naive, ACCT_A)
        with pytest.raises(DecOverflowError):
            naive.health(ACCT_A)
        with pytest.raises(DecOverflowError):
            naive.is_liquidable(ACCT_A)


def test_ground_truth_values_every_account_after_every_event(monkeypatch):
    """The oracle stays naive: one valuation per account with a position,
    after every event, and nothing skipped."""
    calls = []
    valuation = _NaiveState.is_liquidable
    monkeypatch.setattr(_NaiveState, "is_liquidable", lambda self, a: calls.append(a) or valuation(self, a))
    events = hand_fixture()
    ground_truth(events, [])
    expected = []
    seen = set()
    for event in events:
        seen.update(event.payload[f] for f in ("account", "borrower", "liquidator") if f in event.payload)
        expected.extend(sorted(seen))
    assert calls == expected
