"""Seeded benchmark inputs and their planted ground truth.

Standard library only, and independent of the code under test: streams
are written with ``json`` directly, and the expected results are worked
out here from the documented semantics (18-digit fixed point truncating
toward zero; health is ``((ctokens*rate)*factor)*price`` against
``accrued*price``; a borrow position accrues lazily as
``principal*index/snapshot``). The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import os
from random import Random

S = 10 ** 18  # fixed-point scale
CLOSE_FACTOR = "0.5"
LIQUIDATOR = "0x" + "f" * 40
SHOCKS = [f"0.{i:02d}" for i in range(0, 60, 3)]  # 20 shocks, 0 .. 0.57
LIQUIDATION_DELAYS = (1, 3, 8, 20, 45)  # blocks between crash and each liquidation


def dec(text: str) -> int:
    if text.startswith("-"):
        return -dec(text[1:])
    whole, _, frac = text.partition(".")
    return int(whole) * S + int(frac.ljust(18, "0") or "0")


def fmt(m: int) -> str:
    whole, frac = divmod(abs(m), S)
    text = str(whole)
    if frac:
        text += "." + str(frac).zfill(18).rstrip("0")
    return "-" + text if m < 0 else text


def mul(a: int, b: int) -> int:
    return a * b // S  # operands are never negative here


def div(a: int, b: int) -> int:
    return a * S // b


def address(i: int) -> str:
    return "0x" + format(0xBE000 + i, "040x")


class Book:
    """Exact replica of the state the stream builds, with an event writer."""

    def __init__(self):
        self.lines: list[str] = []
        self.keys: list[tuple[int, int, int]] = []
        self.block = 1
        self.tx = 0
        self.markets: dict[str, dict] = {}
        self.prices: dict[str, int] = {}
        self.pos: dict[str, dict[str, list[int]]] = {}  # account -> symbol -> [ctokens, principal, snapshot]
        self.borrowers: dict[str, set[str]] = {}

    # -- writing ---------------------------------------------------------

    def emit(self, obj: dict) -> None:
        if self.keys and self.keys[-1][0] == self.block:
            self.tx += 1
        else:
            self.tx = 0
        key = (self.block, self.tx, 0)
        obj = {"block": key[0], "tx_index": key[1], "log_index": 0, **obj}
        self.lines.append(json.dumps(obj, separators=(",", ":")))
        self.keys.append(key)

    def advance(self, blocks: int = 1) -> None:
        self.block += blocks

    # -- transitions (mirror the event, then write it) --------------------

    def list_market(self, sym: str, rate: str, factor: str, price: str) -> None:
        self.markets[sym] = {"rate": dec(rate), "index": S, "cf": dec(factor), "supply": 0, "borrows": 0}
        self.emit({"kind": "MarketListed", "asset": sym, "initial_exchange_rate": rate,
                   "initial_collateral_factor": factor})
        self.set_price(sym, dec(price))

    def set_price(self, sym: str, price: int) -> None:
        self.prices[sym] = price
        self.emit({"kind": "PriceUpdate", "asset": sym, "price_usd": fmt(price)})

    def _position(self, account: str, sym: str) -> list[int]:
        return self.pos.setdefault(account, {}).setdefault(sym, [0, 0, S])

    def accrued(self, account: str, sym: str) -> int:
        p = self.pos.get(account, {}).get(sym)
        if p is None or p[1] == 0:
            return 0
        return p[1] * self.markets[sym]["index"] // p[2]

    def mint(self, account: str, sym: str, ctokens: int) -> None:
        # ctokens carry at most 6 decimals and rates at most 10, so the
        # underlying amount is exact and agrees with the exchange rate.
        m = self.markets[sym]
        self._position(account, sym)[0] += ctokens
        m["supply"] += ctokens
        self.emit({"kind": "Mint", "market": sym, "account": account,
                   "amount_underlying": fmt(mul(ctokens, m["rate"])), "amount_ctokens": fmt(ctokens)})

    def redeem(self, account: str, sym: str, ctokens: int) -> None:
        m = self.markets[sym]
        self._position(account, sym)[0] -= ctokens
        m["supply"] -= ctokens
        self.emit({"kind": "Redeem", "market": sym, "account": account,
                   "amount_underlying": fmt(mul(ctokens, m["rate"])), "amount_ctokens": fmt(ctokens)})

    def _refresh(self, account: str, sym: str, delta: int) -> None:
        p = self._position(account, sym)
        p[1] = self.accrued(account, sym) + delta
        p[2] = self.markets[sym]["index"]
        self.markets[sym]["borrows"] += delta
        if p[1]:
            self.borrowers.setdefault(sym, set()).add(account)
        else:
            self.borrowers.get(sym, set()).discard(account)

    def borrow(self, account: str, sym: str, amount: int) -> None:
        self._refresh(account, sym, amount)
        self.emit({"kind": "Borrow", "market": sym, "account": account, "amount_underlying": fmt(amount)})

    def repay(self, account: str, sym: str, amount: int) -> None:
        self._refresh(account, sym, -amount)
        self.emit({"kind": "RepayBorrow", "market": sym, "account": account, "payer": account,
                   "amount_underlying": fmt(amount)})

    def liquidate(self, borrower: str, debt: str, coll: str, repay: int, seized: int) -> int:
        """Write a liquidation; returns the seized USD value at current prices."""
        self._refresh(borrower, debt, -repay)
        self._position(borrower, coll)[0] -= seized
        self._position(LIQUIDATOR, coll)[0] += seized
        self.emit({"kind": "LiquidateBorrow", "repay_market": debt, "borrower": borrower,
                   "liquidator": LIQUIDATOR, "repay_amount_underlying": fmt(repay),
                   "collateral_market": coll, "seized_ctokens": fmt(seized)})
        return mul(mul(seized, self.markets[coll]["rate"]), self.prices[coll])

    def accrue(self, sym: str, index_step: int, rate_step: int) -> None:
        """Raise the borrow index and exchange rate; interest is exact."""
        m = self.markets[sym]
        old = m["index"]
        new = old + index_step
        interest = 0
        for account in self.borrowers.get(sym, ()):
            p = self.pos[account][sym]
            interest += p[1] * new // p[2] - p[1] * old // p[2]
        m["index"] = new
        m["rate"] += rate_step
        m["borrows"] += interest
        self.emit({"kind": "AccrueInterest", "market": sym, "new_borrow_index": fmt(new),
                   "new_exchange_rate": fmt(m["rate"]), "interest_accumulated_underlying": fmt(interest)})

    # -- valuation ---------------------------------------------------------

    def health(self, account: str) -> tuple[int, int, int]:
        """(collateral power, borrow value, collateral value) in USD mantissas."""
        power = borrow = coll = 0
        for sym, (ct, principal, snap) in self.pos.get(account, {}).items():
            m = self.markets[sym]
            price = self.prices[sym]
            if ct:
                base = mul(ct, m["rate"])
                coll += mul(base, price)
                power += mul(mul(base, m["cf"]), price)
            if principal:
                borrow += mul(principal * m["index"] // snap, price)
        return power, borrow, coll

    def liquidable(self) -> list[str]:
        return sorted(a for a in self.pos if (h := self.health(a))[0] < h[1])

    def approx_ratio(self, account: str, extra_debt_usd: float = 0.0, lost_power_usd: float = 0.0) -> float:
        power, borrow, _ = self.health(account)
        debt = borrow / S + extra_debt_usd
        return float("inf") if debt <= 0 else (power / S - lost_power_usd) / debt

    # -- ground truth ------------------------------------------------------

    def funds(self) -> tuple[int, int]:
        supplied = borrowed = 0
        for sym in sorted(self.markets):
            m = self.markets[sym]
            if m["supply"] == 0 and m["borrows"] == 0:
                continue
            supplied += mul(mul(m["supply"], m["rate"]), self.prices[sym])
            borrowed += mul(m["borrows"], self.prices[sym])
        return supplied, borrowed

    def borrow_ranking(self, top: int) -> tuple[int, list[str]]:
        values = [(self.health(a)[1], a) for a in self.pos]
        values.sort(key=lambda item: (-item[0], item[1]))
        return sum(v for v, _ in values), [a for _, a in values[:top]]

    def write(self, directory: str, mid_block: int) -> dict:
        stream = os.path.join(directory, "stream.jsonl")
        tail = os.path.join(directory, "tail.jsonl")
        with open(stream, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self.lines) + "\n")
        tail_lines = [line for line, key in zip(self.lines, self.keys) if key[0] > mid_block]
        with open(tail, "w", encoding="utf-8") as handle:
            handle.write("\n".join(tail_lines) + "\n")
        supplied, borrowed = self.funds()
        total, top = self.borrow_ranking(10)
        return {
            "events": len(self.lines),
            "prefix_events": len(self.lines) - len(tail_lines),
            "tail_events": len(tail_lines),
            "first_block": self.keys[0][0],
            "last_key": list(self.keys[-1]),
            "mid_block": mid_block,
            "participants": len(self.pos),
            "liquidable": self.liquidable(),
            "supplied_usd": fmt(supplied),
            "borrowed_usd": fmt(borrowed),
            "borrow_total_usd": fmt(total),
            "borrow_top10": top,
        }


def _cdf(records: list[tuple[int, int]], weighting: str) -> list[list]:
    """Expected efficiency CDF rows [blocks, fraction] for (blocks, value) records."""
    mass: dict[int, int] = {}
    for blocks, value in records:
        mass[blocks] = mass.get(blocks, 0) + (value if weighting == "value" else S)
    total = sum(mass.values())
    rows, cumulative = [], 0
    for blocks in sorted(mass):
        cumulative += mass[blocks]
        rows.append([blocks, fmt(div(cumulative, total))])
    return rows


def bulk_stream(directory: str, seed: int, events: int = 20_000, accounts: int = 50) -> dict:
    """Long stream on a small book: 2 markets, mostly Mint/Borrow/Repay/Redeem.

    A few percent of events move prices or accrue interest. At 30% of the
    stream a WETH crash leaves accounts underwater and five of them are
    liquidated after planned delays, so the efficiency CDF up to that point
    is known exactly; the price then recovers. A second crash ends the
    stream, so the final state has accounts to liquidate.
    """
    rng = Random(f"bulk_stream:{seed}")
    book = Book()
    book.emit({"kind": "NewCloseFactor", "new_close_factor": CLOSE_FACTOR})
    book.list_market("USDC", "0.02", "0.8", "1")
    book.list_market("WETH", "0.02", "0.75", "2000")
    base = {"USDC": dec("1"), "WETH": dec("2000")}
    symbols = ("USDC", "WETH")
    # Thinly collateralised accounts (ratio 1.25) that random events never
    # touch: they survive the +-10% walk and sink in the crash.
    book.advance()
    thin = [address(i) for i in range(8)]
    for account in thin:
        book.mint(account, "WETH", rng.randrange(50, 500) * 10 ** 20)
        book.borrow(account, "USDC", int(book.health(account)[0] / S / 1.25 * 10 ** 4) * 10 ** 14)
    actors = [address(i) for i in range(len(thin), accounts)]
    index_budget = {sym: S * 2 // 100 for sym in symbols}  # total index growth stays under 2%

    def random_event(pool: list[str], quiet: bool) -> None:
        for _ in range(20):
            roll = rng.random()
            account = rng.choice(pool)
            sym = rng.choice(symbols)
            price = book.prices[sym] / S
            if roll < 0.32 or not book.pos.get(account):
                underlying = rng.randrange(100, 5000) / price
                book.mint(account, sym, max(1, int(underlying / 0.02 * 10 ** 2)) * 10 ** 16)
                return
            if roll < 0.56:
                usd = rng.uniform(50, 2000)
                if book.approx_ratio(account, extra_debt_usd=usd) < 1.3:
                    continue
                book.borrow(account, sym, int(usd / price * 10 ** 4) * 10 ** 14)
                return
            if roll < 0.78:
                owed = book.accrued(account, sym)
                if owed == 0:
                    continue
                book.repay(account, sym, owed if rng.random() < 0.2 else owed * rng.randrange(10, 90) // 100)
                return
            if roll < 0.97 or quiet:
                held = book.pos[account].get(sym, [0])[0]
                amount = held * rng.randrange(5, 60) // 100 // 10 ** 12 * 10 ** 12
                if amount == 0:
                    continue
                m = book.markets[sym]
                lost = mul(mul(mul(amount, m["rate"]), m["cf"]), book.prices[sym]) / S
                if book.approx_ratio(account, lost_power_usd=lost) < 1.3:
                    continue
                book.redeem(account, sym, amount)
                return
            if roll < 0.985:
                # Random walk within +-10% of the listing price, 4 decimals.
                step = rng.choice((-1, 1)) * rng.randrange(1, 10)
                new = book.prices[sym] + base[sym] * step // 1000
                new = min(max(new, base[sym] * 9 // 10), base[sym] * 11 // 10)
                book.set_price(sym, new)
                return
            step = rng.randrange(1, 200) * 10 ** 10
            if index_budget[sym] < step:
                continue
            index_budget[sym] -= step
            book.accrue(sym, step, rng.randrange(0, 100) * 10 ** 8)
            return
        raise RuntimeError("bulk_stream generator found no valid event")

    def crash() -> list[str]:
        # Every account must be healthy just before, so each liquidable
        # streak starts exactly at the crash block.
        if book.liquidable():
            raise RuntimeError("an account went underwater before a planned crash")
        book.set_price("WETH", base["WETH"] * 6 // 10)
        return book.liquidable()

    def walk(until: int) -> None:
        while len(book.lines) < until:
            for _ in range(rng.randrange(1, 4)):
                random_event(actors, quiet=False)
            book.advance(rng.randrange(1, 3))

    book.advance()
    walk(events * 3 // 10)
    crash_block = book.block
    underwater = crash()
    candidates = [a for a in underwater if book.pos[a].get("WETH", [0])[0]]
    if len(candidates) < len(LIQUIDATION_DELAYS):
        raise RuntimeError("crash left too few liquidation candidates")
    victims = rng.sample(candidates, len(LIQUIDATION_DELAYS))
    bystanders = [a for a in actors if a not in underwater]  # their events leave victims alone
    records: list[tuple[int, int]] = []
    for delay, victim in zip(LIQUIDATION_DELAYS, victims):
        while book.block < crash_block + delay:
            book.advance()
            for _ in range(rng.randrange(0, 3)):
                random_event(bystanders, quiet=True)
        debt = max(symbols, key=lambda sym: book.accrued(victim, sym) * book.prices[sym])
        repay = book.accrued(victim, debt) // 2
        seized = book.pos[victim]["WETH"][0] * 3 // 10 // 10 ** 12 * 10 ** 12
        records.append((delay, book.liquidate(victim, debt, "WETH", repay, seized)))
    efficiency_at_block = book.block
    book.advance()
    book.set_price("WETH", base["WETH"])  # recovery; the walk resumes
    walk(events - 50)
    mid_block = book.keys[len(book.keys) // 2][0]
    book.advance()
    crash()  # a second crash leaves the final state with accounts underwater
    truth = book.write(directory, mid_block)
    truth.update(
        sensitivity_asset="WETH",
        timeseries_stride=max(1, (book.keys[-1][0] - book.keys[0][0]) // 1000),
        efficiency={"value": _cdf(records, "value"), "count": _cdf(records, "count")},
        efficiency_at_block=efficiency_at_block,
        liquidable_from="events",
    )
    return truth


def wide_book(directory: str, seed: int, accounts: int = 3_000, tail: int = 1_500) -> dict:
    """Large state, short tail: ``accounts`` x 3 markets built by a prefix of
    two to four events per account, then a tail of price and accrual events
    that leaves a planted band of thinly collateralised accounts underwater."""
    rng = Random(f"wide_book:{seed}")
    book = Book()
    book.emit({"kind": "NewCloseFactor", "new_close_factor": CLOSE_FACTOR})
    book.list_market("USDC", "0.02", "0.85", "1")
    book.list_market("WETH", "0.02", "0.8", "2000")
    book.list_market("WBTC", "0.02", "0.7", "30000")
    base = {"USDC": dec("1"), "WETH": dec("2000"), "WBTC": dec("30000")}
    book.advance()
    for i in range(accounts):
        account = address(i)
        coll = rng.choice(("WETH", "WBTC"))
        price = base[coll] / S
        usd = rng.uniform(1_000, 50_000)
        book.mint(account, coll, int(usd / price / 0.02 * 10 ** 6) * 10 ** 12)
        if rng.random() < 0.5:
            book.mint(account, "USDC", int(rng.uniform(100, 5_000) / 0.02) * S)
        roll = rng.random()
        if roll < 0.8:
            # Planted band: ratio 1.05-1.15 goes underwater after the tail's
            # 15% collateral drop; the rest (1.6-3.0) stays safe.
            ratio = rng.uniform(1.05, 1.15) if roll < 0.1 else rng.uniform(1.6, 3.0)
            power = book.health(account)[0] / S
            book.borrow(account, "USDC", int(power / ratio * 10 ** 4) * 10 ** 14)
            if rng.random() < 0.3:
                book.repay(account, "USDC", book.accrued(account, "USDC") // 10 // 10 ** 12 * 10 ** 12)
        if (i + 1) % 3 == 0:
            book.advance()
    mid_block = book.block
    book.advance()
    for n in range(tail):
        sym = rng.choice(("WETH", "WBTC", "USDC"))
        if rng.random() < 0.15:
            book.accrue(sym, rng.randrange(1, 100) * 10 ** 10, rng.randrange(0, 100) * 10 ** 8)
        elif sym == "USDC":
            book.set_price(sym, base[sym] + rng.randrange(-20, 21) * 10 ** 14)
        else:
            # Drift from 100% to 85% of the listing price, +-3% noise.
            level = 1.0 - 0.15 * n / tail + rng.uniform(-0.03, 0.03)
            book.set_price(sym, base[sym] * int(level * 10 ** 4) // 10 ** 4)
        if n % 2:
            book.advance()
    for sym in ("WETH", "WBTC"):
        book.set_price(sym, base[sym] * 85 // 100)
    book.set_price("USDC", base["USDC"])
    truth = book.write(directory, mid_block)
    if not truth["liquidable"]:
        raise RuntimeError("wide_book planted no underwater accounts")
    truth.update(
        sensitivity_asset="WETH",
        timeseries_stride=max(1, (book.keys[-1][0] - book.keys[0][0]) // 1000),
        efficiency={"value": [], "count": []},  # the prefix has no liquidations
        efficiency_at_block=mid_block,
        liquidable_from="snapshot",
    )
    return truth


def scenario_spec(seed: int, events: int, accounts: int, delays: tuple[int, ...], checkpoints: int) -> dict:
    """A ``gen-scenario --spec`` document with 3 base markets and planned
    liquidations spread over the stream, one per delay."""
    last = events * 2 // 3  # gen-scenario advances about 1.5 blocks per 2 events
    spacing = last // (len(delays) + 1)
    plans = [
        {
            "account": "0x" + format(0xD0000 + i, "040x"),
            "liquidable_block": spacing * (i + 1) - delay // 2,
            "liquidation_block": spacing * (i + 1) - delay // 2 + delay,
        }
        for i, delay in enumerate(delays)
    ]
    return {
        "seed": seed % 2 ** 64,  # gen-scenario takes an unsigned 64-bit seed
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
        "planned_liquidations": plans,
    }


def side_spec(seed: int) -> dict:
    """Small spec that the other workloads time ``gen-scenario`` on."""
    return scenario_spec(seed, events=300, accounts=10, delays=(2,), checkpoints=3)


def annotated_truth(directory: str, annotations: dict) -> dict:
    """Ground truth for the annotated scenario, read from its annotation
    file (built by the generator's independent naive replay)."""
    with open(os.path.join(directory, "stream.jsonl"), "rb") as handle:
        lines = handle.read().splitlines()
    objs = [json.loads(line) for line in lines]
    keys = [(o["block"], o["tx_index"], o["log_index"]) for o in objs]
    participants = {o[f] for o in objs for f in ("account", "borrower", "liquidator") if f in o}
    checkpoints = annotations["checkpoints"]
    mid_block = checkpoints[len(checkpoints) // 2]["block"]
    with open(os.path.join(directory, "tail.jsonl"), "wb") as handle:
        handle.write(b"".join(line + b"\n" for line, key in zip(lines, keys) if key[0] > mid_block))
    records = [(r["blocks_elapsed"], dec(r["seized_value_usd"])) for r in annotations["efficiency_records"]]
    first, last = keys[0][0], keys[-1][0]
    return {
        "events": len(lines),
        "prefix_events": sum(1 for key in keys if key[0] <= mid_block),
        "tail_events": sum(1 for key in keys if key[0] > mid_block),
        "first_block": first,
        "last_key": list(keys[-1]),
        "mid_block": mid_block,
        "participants": len(participants),
        "liquidable": list(checkpoints[-1]["liquidable"]),
        "checkpoints": [(cp["block"], list(cp["liquidable"])) for cp in checkpoints],
        "sensitivity_asset": "ETH",
        "timeseries_stride": 1,
        "efficiency": {"value": _cdf(records, "value"), "count": _cdf(records, "count")},
        "efficiency_at_block": None,
    }
