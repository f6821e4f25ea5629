"""Event-sourced state and risk analytics for protocols for loanable funds.

The package replays normalized protocol event logs into exact fixed-point
state, flags liquidable positions, and derives liquidation-efficiency,
price-sensitivity, concentration, and leverage measures from that state.
"""

__version__ = "0.1.0"
