"""Event-sourced state and risk analytics for protocols for loanable funds.

The package replays normalized protocol event logs into exact fixed-point
state, flags liquidable positions, and derives liquidation-efficiency,
price-sensitivity, concentration, and leverage measures from that state.
"""

__version__ = "0.1.0"

from .engine import ReplayError, ReplayReport, TransitionError, apply_event, replay, state_digest
from .events import (
    EventParseError,
    EventRecord,
    OrderingKey,
    StreamOrderError,
    read_events,
    write_events,
)
from .fixedpoint import ONE, ZERO, Dec, DecOverflowError, DecParseError
from .model import (
    GlobalState,
    MarketState,
    MissingPriceError,
    Position,
    PriceTable,
    ProtocolParams,
    validate_state,
)
from .risk import (
    AccountHealth,
    account_health,
    liquidable_accounts,
    max_repay,
    price_sensitivity,
    ratio_buckets,
    seize_quote,
    seize_quote_at_discount,
)
from .analytics import (
    concentration,
    efficiency_cdf,
    funds_time_series,
    track_efficiency,
)
from .leverage import max_exposure, quote, total_collateral, total_debt
from .snapshots import load_snapshot, save_snapshot, verify_snapshot
from .scenarios import ScenarioSpec, default_spec, generate, ground_truth

__all__ = [
    "Dec",
    "DecOverflowError",
    "DecParseError",
    "ZERO",
    "ONE",
    "OrderingKey",
    "EventRecord",
    "EventParseError",
    "StreamOrderError",
    "read_events",
    "write_events",
    "GlobalState",
    "MarketState",
    "Position",
    "PriceTable",
    "ProtocolParams",
    "MissingPriceError",
    "validate_state",
    "apply_event",
    "replay",
    "state_digest",
    "ReplayReport",
    "ReplayError",
    "TransitionError",
    "AccountHealth",
    "account_health",
    "liquidable_accounts",
    "max_repay",
    "seize_quote",
    "seize_quote_at_discount",
    "price_sensitivity",
    "ratio_buckets",
    "track_efficiency",
    "efficiency_cdf",
    "concentration",
    "funds_time_series",
    "total_collateral",
    "total_debt",
    "max_exposure",
    "quote",
    "save_snapshot",
    "load_snapshot",
    "verify_snapshot",
    "ScenarioSpec",
    "default_spec",
    "generate",
    "ground_truth",
    "__version__",
]
